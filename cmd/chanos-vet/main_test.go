package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when vet re-executes this
// test binary with "main" as its first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "main" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// vet runs chanos-vet with args in a child process and returns its
// stdout and exit code.
func vet(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(os.Args[0], append([]string{"main"}, args...)...).Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// module writes a one-package module named chanos whose package sits
// in a schedule-affecting path, so mapiter applies to src.
func module(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	pkg := filepath.Join(dir, "internal", "store", "x")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		filepath.Join(dir, "go.mod"): "module chanos\n\ngo 1.24\n",
		filepath.Join(pkg, "x.go"):   "package x\n\n" + src,
	} {
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// A waiver that suppresses nothing, or one that cannot suppress, fails
// the run in text and JSON mode alike; the same code without it passes.
func TestWaiverRotFailsTheRun(t *testing.T) {
	const code = "func f(s []int) (n int) {\n\t%s\n\tfor _, v := range s {\n\t\tn += v\n\t}\n\treturn n\n}\n"
	cases := []struct {
		name, waiver string
		exit         int
		want         string // names the waiver's fault in the text output
	}{
		{"clean", "", 0, "chanos-vet: ok"},
		{"unused", "//chanos:allow mapiter left over from a map", 1, "suppresses nothing"},
		{"malformed", "//chanos:allow mapiter", 1, "missing justification"},
	}
	for _, c := range cases {
		dir := module(t, fmt.Sprintf(code, c.waiver))
		for _, mode := range [][]string{nil, {"-json"}} {
			out, exit := vet(t, append(append([]string{"-C", dir}, mode...), "./...")...)
			if exit != c.exit {
				t.Errorf("%s %v: exit %d, want %d\n%s", c.name, mode, exit, c.exit, out)
			}
			if mode == nil && !strings.Contains(out, c.want) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, out)
			}
		}
	}
}
