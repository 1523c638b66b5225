package cliutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cedar/internal/fault"
	"cedar/internal/params"
	"cedar/internal/tables"
)

// open registers the shared flags, parses args and opens the session, as
// cedarsim does; a parse error is returned like any other bad invocation
// (the command exits 2 on either).
func open(t *testing.T, args ...string) (*Session, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	shared := Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return shared.Open(fs, false)
}

// TestParseMixesFlagsAndArguments: flags before, between and after the
// positional arguments all land, and the arguments come back in order.
func TestParseMixesFlagsAndArguments(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	n := fs.Int("n", 0, "")
	q := fs.Bool("q", false, "")
	shared := Register(fs)
	pos, err := Parse(fs, []string{"t1", "-n", "32", "t2", "-q", "-jobs", "2", "t3"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(pos, " ") != "t1 t2 t3" || *n != 32 || !*q || shared.Jobs != 2 {
		t.Errorf("Parse = %q, -n %d, -q %v, -jobs %d; want t1 t2 t3, 32, true, 2", pos, *n, *q, shared.Jobs)
	}
	if _, err := Parse(fs, []string{"t1", "-bogus"}); err == nil {
		t.Error("an unknown flag after an argument parsed")
	}
}

func TestSetupJobsValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "0"},
		{"-jobs=-4"},
	} {
		if _, err := open(t, args...); err == nil {
			t.Errorf("Open(%v): want error for non-positive explicit -jobs", args)
		} else if !strings.Contains(err.Error(), "-jobs") {
			t.Errorf("Open(%v): error %q does not name the flag", args, err)
		}
	}

	// Unset flags keep the defaults without complaint: GOMAXPROCS
	// workers, the as-built machine, healthy, unobserved.
	s, err := open(t)
	if err != nil {
		t.Fatalf("Open with defaults: %v", err)
	}
	if s.Env != (tables.Env{}) {
		t.Fatalf("Env with no flags = %+v, want the zero Env", s.Env)
	}

	if s, err = open(t, "-jobs", "3"); err != nil {
		t.Fatalf("Open(-jobs 3): %v", err)
	}
	if s.Env.Jobs != 3 {
		t.Fatalf("Env.Jobs = %d, want 3", s.Env.Jobs)
	}
}

func TestSetupFaultPlans(t *testing.T) {
	s, err := open(t, "-faults", "demo")
	if err != nil {
		t.Fatalf("Open(-faults demo): %v", err)
	}
	if plan := s.Env.Faults; plan == nil || len(plan.Faults) == 0 {
		t.Fatal("demo plan is empty")
	}

	good := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(good, []byte(`{"seed": 7, "faults": [{"kind": "bank-dead", "module": 2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = open(t, "-faults", good); err != nil {
		t.Fatalf("Open(-faults %s): %v", good, err)
	}
	if plan := s.Env.Faults; plan.Seed != 7 || len(plan.Faults) != 1 || plan.Faults[0].Kind != fault.BankDead {
		t.Fatalf("loaded plan = %+v", plan)
	}

	// The plan belongs to its session: a later one opened without
	// -faults is healthy.
	if s, err = open(t); err != nil {
		t.Fatal(err)
	}
	if s.Env.Faults != nil {
		t.Fatal("session without -faults carries a plan")
	}
}

func TestSetupFaultErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"seed": 1, "faults": [{"kind": "bank-dead", "module": -1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		filepath.Join(t.TempDir(), "missing.json"),
		bad,
	} {
		if _, err := open(t, "-faults", path); err == nil {
			t.Errorf("Open(-faults %s): want error", path)
		}
	}
}

func TestSetupShardsAndClusters(t *testing.T) {
	s, err := open(t, "-clusters", "16")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Env.Machine(); got != params.Cedar16() {
		t.Errorf("Env.Machine() = %+v, want Cedar16", got)
	}
	// The width travels in the Env only: the as-built machine is still
	// what params.Default means.
	if got := params.Default().Clusters; got != 4 {
		t.Errorf("Default().Clusters = %d under -clusters 16, want 4", got)
	}

	// -shards left with the intra-run parallel engine: the flag package
	// rejects it on every command that registers the shared flags. An
	// invalid width is rejected by params validation.
	for flagName, args := range map[string][]string{
		"-shards":   {"-shards", "2"},
		"-clusters": {"-clusters", "-2"},
	} {
		if _, err := open(t, args...); err == nil {
			t.Errorf("Open(%v): want error", args)
		} else if !strings.Contains(err.Error(), flagName) {
			t.Errorf("Open(%v): error %q does not name the flag", args, err)
		}
	}
}

// TestSessionArtifacts: Close owes what the flags asked for — the trace
// and metrics files, the profiles — and nothing when nothing was asked.
func TestSessionArtifacts(t *testing.T) {
	dir := t.TempDir()
	trace, metrics, mem := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.csv"), filepath.Join(dir, "mem.pb.gz")
	s, err := open(t, "-trace", trace, "-metrics", metrics, "-memprofile", mem)
	if err != nil {
		t.Fatal(err)
	}
	if s.Env.Hub == nil {
		t.Fatal("-trace/-metrics did not build a hub")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{trace, metrics, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty after Close (err %v)", path, err)
		}
	}

	// Unobserved, nothing owed: Close writes nothing and succeeds.
	if s, err = open(t); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("unobserved Close = %v", err)
	}
}
