package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// streamDigest returns the SHA-256 of k's op stream, each op encoded as its
// fields in declaration order: Kind as one byte, N, Addr and Src as
// little-endian uint64s, and Dep as one byte.
func streamDigest(k Kernel) (digest string, ops int) {
	s := k.Stream()
	defer s.Close()
	h := sha256.New()
	var op Op
	var b [26]byte
	for s.Next(&op) {
		b[0] = byte(op.Kind)
		binary.LittleEndian.PutUint64(b[1:], uint64(op.N))
		binary.LittleEndian.PutUint64(b[9:], op.Addr)
		binary.LittleEndian.PutUint64(b[17:], op.Src)
		b[25] = 0
		if op.Dep {
			b[25] = 1
		}
		h.Write(b[:])
		ops++
	}
	return hex.EncodeToString(h.Sum(nil)), ops
}

// slabCrossing emits every op kind over several slabs, with compute left
// pending as a slab fills: the coalesced op lands in a slab's last slot, in
// the next slab's first slot, and at scattered offsets in between.
var slabCrossing = Kernel{Name: "slab-crossing", Body: func(g *Gen) {
	for i := 0; i < slabSize-1; i++ {
		g.Load(uint64(i) * 64)
	}
	g.Compute(3)
	g.Compute(4)
	g.Store(0) // the compute op fills the first slab's last slot
	for i := 0; i < slabSize-1; i++ {
		g.LoadDep(uint64(i) * 128)
	}
	g.Compute(5)
	g.Flush(64) // the compute op opens the third slab
	for i := 0; i < 2*slabSize+37; i++ {
		g.Compute(int64(i % 3))
		switch i % 7 {
		case 0, 1:
			g.Load(uint64(i) * 64)
		case 2:
			g.LoadDep(uint64(i) * 8)
		case 3:
			g.Store(uint64(i) * 64)
		case 4:
			g.Flush(uint64(i) * 64)
		case 5:
			g.Compute(-1) // ignored
			g.RowClone(uint64(i)<<13, uint64(i+1)<<13)
		default:
			if i%5 == 0 {
				g.Mark()
			} else {
				g.Barrier()
			}
		}
	}
	g.Compute(11) // trailing compute flushed when the body returns
}}

// TestKernelStreamDigests pins the exact op stream of every validation
// kernel at Tiny and of slabCrossing, so a change to the emitters, Gen's
// slab filling or compute coalescing that alters a single op field, or the
// op order, fails here before it reaches an emulated run. The digests were
// captured from the emitters as they stood before Gen.slot gained its
// inlined fast path.
func TestKernelStreamDigests(t *testing.T) {
	want := map[string]string{
		"gemver":         "649a364448e96aeb49d6a11af3b28bf1c3d1005c3df7479b0870e9bf7c345f70", // 25824 ops
		"mvt":            "9618c6688a8bdace2a7b952b30c47219787450e83afe9589d7bd000ffdff6b37", // 14016 ops
		"gesummv":        "38fd116ce15991ea5cda483ece7275f2addc28d527239081f3313cdd97f65abb", // 9312 ops
		"syrk":           "34e4af1cb23ba1dd9bbc2aeecd9e74663389d4dc4149683f9e186e5e232e8def", // 30276 ops
		"symm":           "8f2ae4117c6b69ad240eb8f738891b7872a3c23bd8fda62cdef6f1db4261f172", // 42624 ops
		"correlation":    "70e3b006a351397eb3f70c49fea7ae2b25464cbf22605fe454f01e1406f88c41", // 30203 ops
		"covariance":     "86f0137a4f6f0323ad639f48f29396fef0f91b5bd275840089cc674e4ab53b5a", // 30180 ops
		"trisolv":        "fead3e6b5b2e39c96c0baf5ab68c6206dc7e29fc3474d7ed5e863f2967d6d3c8", // 3576 ops
		"gramschmidt":    "0b2dc6af3b804e3535638737697ad9102e0e37f84e3c40fe47e2f45643d9a14d", // 57048 ops
		"gemm":           "4bb65b6cd910e12f00c7bf0fe7a702820c7e2668d6b6374fb56b6f8df1dd9d1a", // 57600 ops
		"durbin":         "584d69eff7be1bcf0f554fc02c17b6c020c8d668ae6da13c855ddce63df6e4ab", // 18335 ops
		"2mm":            "821d4ed140cbcd7a340fc92c4e40e0288c6ada188a110ce185b9fb87e5b6bdfb", // 25856 ops
		"3mm":            "1ed16da8c6b5fb36e82c7ad78a3eaf379b6633b65f5669f5ac6bea3521b67e72", // 25284 ops
		"atax":           "aae965637da8c8d8561b28266933a1247a411c0e69226801ec77f65b078ac5bc", // 7296 ops
		"bicg":           "c4aca7fc80a32cecd4ddf0649b72406e16739594aeed5e10aaf7517cb436e8e3", // 7296 ops
		"cholesky":       "c46275f87e42723707a320f6f7589c631c1d7a848a743b55f1257baf28c51bc9", // 7777 ops
		"deriche":        "eb53aa7d174187faf5b01acc7a4619ae42e2c009a7e656b30ced4078cf944345", // 11616 ops
		"doitgen":        "3e671fee25c23041d730dc27096d9f14661c8dfee0ca33c9eeebf38174f1c9dd", // 14336 ops
		"syr2k":          "f66096a16fec8264777c45c8131f2dab4f952e73c6e96fbbf7723c419e7777e7", // 22430 ops
		"trmm":           "1ef63a2a85793e17a4e267cccb038edcd0f3e219c7cc5a8ccacab46ec56f2b61", // 21048 ops
		"lu":             "31b08f3d12e3cdb4a85e8e8d51de15a27ef9f70fe6f8fc49ef32e8cd5746530f", // 14676 ops
		"floyd-warshall": "1dd4d3ef51bf9081a979fbcec13dd264caec5ae9a6842bd149b0095816c373d4", // 32400 ops
		"adi":            "02c24f749bfffb871dfa776cf0d185f3c7280e90cce6fde9dc0154f990dced64", // 25432 ops
		"fdtd-2d":        "755c23e31631c0b55ba488aedc6a844f94c826938b017afae08aaccdcaea1d98", // 18494 ops
		"heat-3d":        "8becd24a0496a56344ebf6dd30307642fd3f9ce878b1ac187fae58fd732942e3", // 18432 ops
		"jacobi-1d":      "dba7a01add1dbb7f13991409222c4359ef72683e516b6e05f36ee70af535a0fc", // 10160 ops
		"jacobi-2d":      "240640cebf9f5f509a2fd65c4ee57d29feb7662c89026e5062fe89e059eddca5", // 13552 ops
		"seidel-2d":      "4d9f677b86ecc5d919c120df8b428cba5c1b2862d1dd1a954f188ab2b79500b3", // 10648 ops
		"slab-crossing":  "99a9c4469553526f7d449213ee75ccd85397921f4dd92e5697d39c8a4dea134b", // 22145 ops
	}
	kernels := append(ValidationSuite(Tiny), slabCrossing)
	if len(kernels) != len(want) {
		t.Errorf("%d kernels, %d pinned digests", len(kernels), len(want))
	}
	for _, k := range kernels {
		got, ops := streamDigest(k)
		if got != want[k.Name] {
			t.Errorf("%q (%d ops): digest %s, want %s", k.Name, ops, got, want[k.Name])
		}
	}
}
