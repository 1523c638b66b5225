package cliutil

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestParseMixesFlagsAndArguments: flags before, between and after the
// positional arguments all land, and the arguments come back in order.
func TestParseMixesFlagsAndArguments(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	n := fs.Int("n", 0, "")
	q := fs.Bool("q", false, "")
	jobs := fs.Int("jobs", 0, "")
	pos, err := Parse(fs, []string{"t1", "-n", "32", "t2", "-q", "-jobs", "2", "t3"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(pos, " ") != "t1 t2 t3" || *n != 32 || !*q || *jobs != 2 {
		t.Errorf("Parse = %q, -n %d, -q %v, -jobs %d; want t1 t2 t3, 32, true, 2", pos, *n, *q, *jobs)
	}
	if _, err := Parse(fs, []string{"t1", "-bogus"}); err == nil {
		t.Error("an unknown flag after an argument parsed")
	}
}
