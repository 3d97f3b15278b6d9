package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestMain runs main instead of the tests when TestStdout re-executes
// this test binary with "main" as its first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "main" {
		os.Args = os.Args[:1]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStdout runs the real program in a child process and pins its
// stdout byte for byte. A change that means to move it regenerates the
// golden from the repository root with
//
//	go run ./examples/fileserver > examples/fileserver/testdata/stdout.golden
//
// and says why in the same change.
func TestStdout(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Command(os.Args[0], "main").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from testdata/stdout.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
