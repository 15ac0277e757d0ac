package celint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// TestVetModeVetxOnly drives vetMode directly with a hand-written vet
// config for a one-file, import-free unit carrying a dirlint finding.
// A normal pass prints the finding and exits 1. A VetxOnly pass — the
// dependency pass cmd/go runs for facts alone — must print nothing and
// exit 0, yet still write its VetxOutput. Through go vet this cannot be
// checked: cmd/go drops a VetxOnly unit's output itself.
func TestVetModeVetxOnly(t *testing.T) {
	analysis.RegisterFactTypes(Analyzers())
	dir := t.TempDir()
	src := filepath.Join(dir, "unit.go")
	code := "package unit\n\n//ce:nondetok seeded randomness\nfunc f() {}\n"
	if err := os.WriteFile(src, []byte(code), 0o666); err != nil {
		t.Fatal(err)
	}
	const finding = `unknown //ce: directive "nondetok"`

	for _, tc := range []struct {
		vetxOnly bool
		code     int
	}{{false, 1}, {true, 0}} {
		vetx := filepath.Join(dir, "unit.vetx")
		os.Remove(vetx)
		cfg, err := json.Marshal(vetConfig{
			ID:         "unit",
			Compiler:   "gc",
			Dir:        dir,
			ImportPath: "unit",
			GoFiles:    []string{src},
			VetxOnly:   tc.vetxOnly,
			VetxOutput: vetx,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfgPath := filepath.Join(dir, "vet.cfg")
		if err := os.WriteFile(cfgPath, cfg, 0o666); err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		got := vetMode(cfgPath, &stderr)
		if got != tc.code {
			t.Errorf("VetxOnly=%v: exit %d, want %d; stderr:\n%s", tc.vetxOnly, got, tc.code, &stderr)
		}
		if printed := strings.Contains(stderr.String(), finding); printed == tc.vetxOnly {
			t.Errorf("VetxOnly=%v: finding printed = %v; stderr:\n%s", tc.vetxOnly, printed, &stderr)
		}
		if tc.vetxOnly && stderr.Len() != 0 {
			t.Errorf("VetxOnly=true: stderr not empty:\n%s", &stderr)
		}
		if _, err := os.Stat(vetx); err != nil {
			t.Errorf("VetxOnly=%v: VetxOutput not written: %v", tc.vetxOnly, err)
		}
	}
}
