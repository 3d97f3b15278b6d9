package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// reexec is the first argument that makes the test binary run main()
// instead of the tests: the golden runs execute the real program, flag
// parsing included, in a process of their own.
const reexec = "kvserver-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == reexec {
		os.Args = append([]string{"kvserver"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenOutput pins kvserver's stdout byte for byte for a solo, a
// replica-read and a cluster run. A change that means to move the
// output regenerates the goldens from the repository root, e.g.
//
//	go run ./examples/kvserver -requests 2000 > examples/kvserver/testdata/solo.golden
//
// with each case's args, and says why in the same change.
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("three full kvserver runs")
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"solo.golden", []string{"-requests", "2000"}},
		{"replica-reads.golden", []string{"-replicas", "1", "-replica-reads", "-requests", "4000"}},
		{"cluster.golden", []string{"-machines", "3", "-rf", "2", "-requests", "3000"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command(os.Args[0], append([]string{reexec}, tc.args...)...).Output()
			if err != nil {
				t.Fatalf("kvserver %v: %v", tc.args, err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("kvserver %v output differs from testdata/%s:\ngot:\n%s\nwant:\n%s", tc.args, tc.golden, out, want)
			}
		})
	}
}
