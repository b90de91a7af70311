package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildVettool compiles cmd/drtmr-vet into dir and returns the binary path
// plus the repo root.
func buildVettool(t *testing.T, dir string) (tool, root string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go command unavailable: %v", err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool = filepath.Join(dir, "drtmr-vet")
	if runtime.GOOS == "windows" {
		tool += ".exe"
	}
	build := exec.Command("go", "build", "-o", tool, "./cmd/drtmr-vet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building drtmr-vet: %v\n%s", err, out)
	}
	return tool, root
}

// TestVettoolProtocol builds cmd/drtmr-vet and drives it through the real
// `go vet -vettool` protocol over the commit-pipeline packages — the
// acceptance path check.sh gates on. The suite must come back clean: every
// repo finding is either fixed or carries a reasoned //drtmr:allow.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool and re-vets packages; skipped in -short")
	}
	tool, root := buildVettool(t, t.TempDir())

	vet := exec.Command("go", "vet", "-vettool="+tool,
		"./internal/txn/", "./internal/rdma/", "./internal/cluster/", "./internal/sim/")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=drtmr-vet found unsuppressed diagnostics: %v\n%s", err, out)
	}

	// The protocol probes cmd/go uses must answer in the expected shapes.
	out, err := exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatalf("drtmr-vet -flags: %v", err)
	}
	for _, name := range []string{
		"htmregion", "virtualtime", "abortattr", "lockpair", "doorbell",
		"lockorder", "hotalloc", "enumswitch",
	} {
		if !strings.Contains(string(out), `"`+name+`"`) {
			t.Errorf("-flags output missing analyzer %q: %s", name, out)
		}
	}
	vout, err := exec.Command(tool, "-V=full").Output()
	if err != nil {
		t.Fatalf("drtmr-vet -V=full: %v", err)
	}
	if !strings.Contains(string(vout), " version ") {
		t.Errorf("-V=full output %q does not follow the tool ID protocol", vout)
	}
	_ = os.Remove(tool)
}

// seededBuggy is a module-"drtmr" package carrying one violation per
// summary-based analyzer: a mutex held across a channel send (lockorder), a
// hotpath append (hotalloc), and a non-exhaustive enum switch (enumswitch).
const seededBuggy = `package txn

import "sync"

type Mode uint8

const (
	ModeOff Mode = iota
	ModeOn
	ModeAuto
)

type box struct {
	mu sync.Mutex
	ch chan int
}

func (b *box) heldAcrossSend() {
	b.mu.Lock()
	b.ch <- 1
	b.mu.Unlock()
}

//drtmr:hotpath
func hotAppend(dst []uint64, v uint64) []uint64 {
	return append(dst, v)
}

func pick(m Mode) int {
	switch m {
	case ModeOff:
		return 0
	}
	return 1
}
`

// TestVettoolFailsOnFindings runs the plain `go vet -vettool` gate over a
// temporary module seeded with one violation per summary analyzer: the run
// must fail and name every analyzer that fired.
func TestVettoolFailsOnFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vettool and runs go vet; skipped in -short")
	}
	tool, _ := buildVettool(t, t.TempDir())

	mod := t.TempDir()
	if err := os.MkdirAll(filepath.Join(mod, "internal", "txn"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module drtmr\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mod, "internal", "txn", "seeded.go"), []byte(seededBuggy), 0o666); err != nil {
		t.Fatal(err)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = mod
	out, err := vet.CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("go vet over the seeded module: err = %v, want a nonzero exit\n%s", err, out)
	}
	for _, want := range []string{"lockorder", "hotalloc", "enumswitch"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("go vet output missing %s finding:\n%s", want, out)
		}
	}
}
