package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRemovedFlagExits2 runs main in a child process with a removed
// transport knob: flag refuses it with exit status 2, as it does any
// unknown flag, instead of ignoring it (without -secret, a main that
// parsed it would exit 1 at once rather than start).
func TestRemovedFlagExits2(t *testing.T) {
	if args := os.Getenv("MEMTAPCTL_TEST_ARGS"); args != "" {
		os.Args = append([]string{"memtapctl"}, strings.Fields(args)...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedFlagExits2$")
	cmd.Env = append(os.Environ(), "MEMTAPCTL_TEST_ARGS=-compress-dict")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !bytes.Contains(out, []byte("flag provided but not defined: -compress-dict")) {
		t.Fatalf("memtapctl -compress-dict: %v\n%s", err, out)
	}
}
