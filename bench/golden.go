package bench

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// DefaultSeed is the seed the golden digests were taken at.
const DefaultSeed = 1

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile maps "<scale>/<workload>/<run>" to the SHA-256 of the run's
// emulated output as JSON (a core.Result, or a profile's weak rows and
// statistics).
type goldenFile struct {
	Digests map[string]string `json:"digests"`
}

func loadGolden(data []byte) (map[string]string, error) {
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("bench: parsing golden digests: %w", err)
	}
	if g.Digests == nil {
		g.Digests = map[string]string{}
	}
	return g.Digests, nil
}

func digestOf(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("bench: encoding output for its digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// goldenPath is the file goldenJSON embeds, relative to the bench directory,
// which -update-golden must run in.
const goldenPath = "testdata/golden.json"

// writeGolden replaces every digest under each of the given key prefixes
// in goldenPath with the captured ones, keeping all other entries.
func writeGolden(prefixes []string, captured map[string]string) error {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("bench: reading golden digests (run -update-golden in the bench directory): %w", err)
	}
	all, err := loadGolden(data)
	if err != nil {
		return err
	}
	for k := range all {
		for _, p := range prefixes {
			if strings.HasPrefix(k, p) {
				delete(all, k)
			}
		}
	}
	for k, v := range captured {
		all[k] = v
	}
	data, err = json.MarshalIndent(goldenFile{Digests: all}, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding golden digests: %w", err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: writing golden digests: %w", err)
	}
	return nil
}
