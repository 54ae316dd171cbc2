package snapshot

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"easydram/internal/bloom"
)

const testKey = "profile:v1|test"

// testProfile builds a small two-channel profile exercising every optional
// field shape: weak rows and a populated Bloom filter on channel 0, both
// absent on channel 1.
func testProfile(t testing.TB) *Profile {
	t.Helper()
	f, err := bloom.NewForCapacity(16, 0.01, 42)
	if err != nil {
		t.Fatalf("bloom: %v", err)
	}
	f.Add(0x1000)
	f.Add(0x3000)
	return &Profile{
		Key:   testKey,
		Start: 0x1000,
		End:   0x9000,
		RCDps: 9000,
		Channels: []ChannelProfile{
			{
				Chan: 0, WeakRows: []uint64{0x1000, 0x3000}, Rows: 8, LinesTried: 64,
				Filter: f,
			},
			{Chan: 1, Rows: 8, LinesTried: 64},
		},
	}
}

func TestWriterParseRoundTrip(t *testing.T) {
	w := NewWriter(KindCheckpoint, "key-1")
	w.Section("a", []byte("alpha"))
	w.Section("b", nil)
	w.Section("c", []byte{0, 1, 2, 3})
	img := w.Bytes()

	r, err := ParseExpect(img, KindCheckpoint, "key-1")
	if err != nil {
		t.Fatalf("ParseExpect: %v", err)
	}
	if r.Kind != KindCheckpoint || r.Key != "key-1" {
		t.Errorf("header round trip: kind %d key %q", r.Kind, r.Key)
	}
	if got := r.Sections(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("sections %v", got)
	}
	for name, want := range map[string]string{"a": "alpha", "b": "", "c": "\x00\x01\x02\x03"} {
		p, err := r.Section(name)
		if err != nil {
			t.Fatalf("section %q: %v", name, err)
		}
		if string(p) != want {
			t.Errorf("section %q payload %q, want %q", name, p, want)
		}
	}
	if !r.HasSection("a") || r.HasSection("nope") {
		t.Error("HasSection misreports")
	}
	if _, err := r.Section("nope"); !errors.Is(err, ErrMissingSection) {
		t.Errorf("missing section error: %v", err)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	p := testProfile(t)
	img := p.Encode()
	got, err := DecodeProfile(img, testKey)
	if err != nil {
		t.Fatalf("DecodeProfile: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("round trip changed the profile:\n got %+v\nwant %+v", got, p)
	}
	if got.Rows() != 16 || got.WeakCount() != 2 || got.WeakFraction() != 0.125 {
		t.Errorf("aggregates: rows %d weak %d frac %g", got.Rows(), got.WeakCount(), got.WeakFraction())
	}
}

// namedErr reports whether err maps to one of the package's named load
// errors — the degradation contract: every unusable snapshot is
// classifiable, so callers can fall back instead of crashing.
func namedErr(err error) bool {
	for _, e := range []error{
		ErrBadMagic, ErrBadVersion, ErrBadKind, ErrKeyMismatch,
		ErrChecksum, ErrTruncated, ErrMissingSection, ErrCorrupt,
	} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// TestCorruptionMatrix is the satellite's exhaustive single-fault sweep:
// every one-byte flip and every truncation of a valid profile image must
// fail the load with a named error — never panic, never decode silently.
func TestCorruptionMatrix(t *testing.T) {
	img := testProfile(t).Encode()

	t.Run("byte-flips", func(t *testing.T) {
		for i := range img {
			bad := append([]byte(nil), img...)
			bad[i] ^= 0xff
			p, err := DecodeProfile(bad, testKey)
			if err == nil {
				t.Fatalf("flip at byte %d decoded silently: %+v", i, p)
			}
			if !namedErr(err) {
				t.Fatalf("flip at byte %d: unnamed error %v", i, err)
			}
		}
	})

	t.Run("truncations", func(t *testing.T) {
		for i := 0; i < len(img); i++ {
			p, err := DecodeProfile(img[:i], testKey)
			if err == nil {
				t.Fatalf("truncation to %d bytes decoded silently: %+v", i, p)
			}
			if !namedErr(err) {
				t.Fatalf("truncation to %d bytes: unnamed error %v", i, err)
			}
		}
	})

	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeProfile(nil, testKey); !errors.Is(err, ErrBadMagic) {
			t.Errorf("empty input: %v, want ErrBadMagic", err)
		}
	})

	t.Run("wrong-version", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(bad[8:], Version+1)
		if _, err := DecodeProfile(bad, testKey); !errors.Is(err, ErrBadVersion) {
			t.Errorf("patched version: %v, want ErrBadVersion", err)
		}
	})

	t.Run("wrong-kind", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(bad[12:], KindCheckpoint)
		if _, err := DecodeProfile(bad, testKey); !errors.Is(err, ErrBadKind) {
			t.Errorf("patched kind: %v, want ErrBadKind", err)
		}
	})

	t.Run("wrong-key", func(t *testing.T) {
		if _, err := DecodeProfile(img, "profile:v1|other-silicon"); !errors.Is(err, ErrKeyMismatch) {
			t.Errorf("foreign key: %v, want ErrKeyMismatch", err)
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		if _, err := DecodeProfile(append(append([]byte(nil), img...), 0xaa), testKey); !errors.Is(err, ErrCorrupt) {
			t.Errorf("trailing byte: %v, want ErrCorrupt", err)
		}
	})
}

// TestSemanticValidation pins the post-structural bounds: payloads that
// parse (CRCs intact) but describe impossible profiles are rejected.
func TestSemanticValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(p *Profile)
	}{
		{"weak-exceeds-rows", func(p *Profile) { p.Channels[0].Rows = 1 }},
		{"negative-rows", func(p *Profile) { p.Channels[0].Rows = -1 }},
		{"weak-rows-unsorted", func(p *Profile) {
			p.Channels[0].WeakRows = []uint64{0x3000, 0x1000}
		}},
		{"weak-rows-duplicate", func(p *Profile) {
			p.Channels[0].WeakRows = []uint64{0x1000, 0x1000}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testProfile(t)
			tc.mut(p)
			if _, err := DecodeProfile(p.Encode(), testKey); !errors.Is(err, ErrCorrupt) {
				t.Errorf("decode: %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestWriteFileReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.ezdrprof")
	img := testProfile(t).Encode()

	if err := WriteFile(path, img); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, img) {
		t.Error("ReadFile returned different bytes than written")
	}

	// No temp litter after a successful atomic write.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %q left behind", e.Name())
		}
	}

	// A missing file is an ordinary fs.ErrNotExist — the facade's "cold
	// start, not a fallback" branch depends on the wrap staying intact.
	if _, err := ReadFile(filepath.Join(dir, "absent")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: %v, want fs.ErrNotExist", err)
	}
}

// TestConcurrentSaveLoad is the -race smoke target: writers rename over
// the path while readers load it, and every read must observe a complete,
// decodable image (the atomic temp+rename contract) with no data races.
func TestConcurrentSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.ezdrprof")
	img := testProfile(t).Encode()
	if err := WriteFile(path, img); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	const iters = 50
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := WriteFile(path, img); err != nil {
					t.Errorf("concurrent WriteFile: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				data, err := ReadFile(path)
				if err != nil {
					t.Errorf("concurrent ReadFile: %v", err)
					return
				}
				if _, err := DecodeProfile(data, testKey); err != nil {
					t.Errorf("concurrent read observed a corrupt snapshot: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
