package difffuzz

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// RegressionsDir is the committed corpus location, relative to the
// difffuzz package directory. Every file in it replays as a named subtest
// (TestRegressionCorpus) forever.
const RegressionsDir = "testdata/regressions"

// Regression is one serialized failing (or once-failing) case. Committed
// regressions document bugs the harness caught: after the fix lands, the
// replay test pins the case green forever.
type Regression struct {
	// Case replays the configuration (self-describing; Case.Seed records
	// provenance but replay never re-decodes it).
	Case Case `json:"case"`
	// Check and Detail record the failure as originally observed.
	Check  string `json:"check"`
	Detail string `json:"detail"`
	// Note is the human triage summary added when committing the case.
	Note string `json:"note,omitempty"`
	// File is the base name (without .json) the regression was loaded
	// from; empty for regressions not read by Load. A committed case keeps
	// its file name, and so its replay subtest name, even when a retired
	// field changes the content hash Name would derive today.
	File string `json:"-"`
}

// Name derives the regression's stable identity: the failed check plus a
// content hash of the case, so distinct cases never collide and re-saving
// the same case is idempotent.
func (r Regression) Name() string {
	b, _ := json.Marshal(r.Case)
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%s-%s", r.Check, hex.EncodeToString(sum[:4]))
}

// Save writes the regression into dir as <name>.json, creating dir as
// needed, and returns the file path.
func Save(dir string, r Regression) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Name()+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads every *.json regression in dir, sorted by filename. A missing
// directory is an empty corpus, not an error. Unknown fields are an error:
// a retired or misspelled field must fail the replay rather than be
// silently ignored, which would replay a different case than the file
// describes.
func Load(dir string) ([]Regression, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	regs := make([]Regression, 0, len(names))
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		r, err := decodeRegression(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		r.File = strings.TrimSuffix(name, ".json")
		regs = append(regs, r)
	}
	return regs, nil
}

// decodeRegression strictly decodes one regression file: unknown fields
// and trailing data are errors.
func decodeRegression(b []byte) (Regression, error) {
	var r Regression
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Regression{}, err
	}
	if dec.More() {
		return Regression{}, fmt.Errorf("trailing data after the regression object")
	}
	return r, nil
}
