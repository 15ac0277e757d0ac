package celint_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/celint"
)

// seededWants are the substrings go vet -vettool must report for the
// badmod fixture: two unclassified environment errors that only analyzer
// facts can surface, once through a direct import and once through a
// package the root never imports.
var seededWants = []string{"errlint", loadFinding, readFinding}

// The cross-package findings, which must survive vetting the root alone.
const (
	loadFinding = "call to dep.Load may return an unclassified environment error (Load: os.ReadFile)"
	readFinding = "call to inner.Read may return an unclassified environment error (Read: os.ReadFile)"
)

// depFinding is the position prefix of dep's own seeded violation.
var depFinding = filepath.Join("dep", "dep.go") + ":"

// TestVettoolProtocol builds the celint binary once and drives it
// through `go vet -vettool`, exercising the unitchecker protocol end to
// end.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs go vet")
	}
	bin := filepath.Join(t.TempDir(), "celint")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/celint")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building celint: %v\n%s", err, out)
	}
	badmod := filepath.Join("testdata", "badmod")

	t.Run("seeded", func(t *testing.T) {
		out, err := vet(bin, badmod, "./...")
		if err == nil {
			t.Fatalf("go vet -vettool exited zero on seeded violations\n%s", out)
		}
		for _, want := range append(seededWants, depFinding) {
			if !strings.Contains(out, want) {
				t.Errorf("vet output missing %q:\n%s", want, out)
			}
		}
	})

	// Vetting only the root vets dep and inner as VetxOnly dependencies:
	// their facts must still flow (the cross-package findings appear)
	// while dep's own finding is suppressed.
	t.Run("root-only", func(t *testing.T) {
		out, err := vet(bin, badmod, ".")
		if err == nil {
			t.Fatalf("go vet -vettool exited zero on seeded violations\n%s", out)
		}
		for _, want := range []string{loadFinding, readFinding} {
			if !strings.Contains(out, want) {
				t.Errorf("vet output missing %q:\n%s", want, out)
			}
		}
		if strings.Contains(out, depFinding) {
			t.Errorf("dependency-only package produced a finding:\n%s", out)
		}
	})

	t.Run("clean", func(t *testing.T) {
		if out, err := vet(bin, "", "repro/internal/canonjson"); err != nil {
			t.Fatalf("go vet -vettool on a clean package: %v\n%s", err, out)
		}
	})
}

// vet runs go vet with the celint binary over pkgs from dir and returns
// its combined output.
func vet(bin, dir string, pkgs ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + bin}, pkgs...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestMainRejectsPackagePatterns checks that celint outside go vet
// prints its usage line and exits 2 instead of loading packages itself.
func TestMainRejectsPackagePatterns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := celint.Main([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.HasPrefix(stderr.String(), "usage: go vet -vettool=") || stdout.Len() != 0 {
		t.Fatalf("stdout = %q, stderr = %q; want only the usage line on stderr", stdout.String(), stderr.String())
	}
}
