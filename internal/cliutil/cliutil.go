// Package cliutil holds the flag plumbing two commands share: Parse
// (flags and positional arguments in any order; cedarsim and cedarbench),
// the count-flag checks AtLeastOne and CheckJobs (cedarsim and
// cedarserve) and the pprof profiles (cedarsim and cedarbench). Each
// command declares its own flags; a check lives here once a second
// command needs it, so that the two cannot drift apart in how they reject
// a bad invocation.
package cliutil

import (
	"flag"
	"fmt"
)

// Parse parses args into fs with flags and positional arguments in any
// order — flag stops at the first non-flag, so Parse resumes after each
// one — and returns the positional arguments in order. An error has
// already been printed by fs: exit 2.
func Parse(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			return pos, nil
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
}

// AtLeastOne is the check every count flag shares: a value of flag name
// below 1 is a bad invocation, and the error says so (print it, exit 2).
func AtLeastOne(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("-%s must be at least 1, got %d", name, v)
	}
	return nil
}

// CheckJobs is the -jobs rule, checked after fs is parsed: left unset,
// the flag's 0 means GOMAXPROCS, but a value the user set must be at
// least 1 (print the error, exit 2).
func CheckJobs(fs *flag.FlagSet, jobs int) error {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == "jobs" })
	if !set {
		return nil
	}
	return AtLeastOne("jobs", jobs)
}
