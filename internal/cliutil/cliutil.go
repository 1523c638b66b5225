// Package cliutil holds the flag plumbing shared by the commands: one
// registration of the shared flags, one validation of them, and one
// session that turns them into the run configuration (tables.Env) and
// owes the artifacts at exit. Keeping it in one place means the commands
// cannot drift apart in how they reject bad invocations or in what a
// flag means.
package cliutil

import (
	"flag"
	"fmt"
	"io"

	"cedar/internal/fault"
	"cedar/internal/params"
	"cedar/internal/scope"
	"cedar/internal/tables"
)

// Flags carries the parsed values of the shared command flags. The zero
// value of every field means "not set, keep the default".
type Flags struct {
	// Jobs is the fleet worker count (-jobs); 0 means GOMAXPROCS.
	Jobs int
	// Clusters is the simulated machine width (-clusters); 0 keeps the
	// as-built 4-cluster Cedar, 16 and 64 select the scale-up presets.
	Clusters int
	// Faults names a JSON fault plan file, or the literal "demo".
	Faults string
	// Trace and Metrics name the observability artifacts to write.
	Trace, Metrics string
	// CPUProfile and MemProfile name the pprof profiles to write.
	CPUProfile, MemProfile string
}

// Register declares the shared flags on fs and returns where their
// values land once fs is parsed. -clusters is offered only by commands
// whose experiments all start from the base machine.
func Register(fs *flag.FlagSet, clusters bool) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON file (Perfetto / chrome://tracing)")
	fs.StringVar(&f.Metrics, "metrics", "", "write the metrics snapshot as CSV")
	fs.IntVar(&f.Jobs, "jobs", 0, "parallel experiment jobs (0 = GOMAXPROCS); output is identical at any value")
	if clusters {
		fs.IntVar(&f.Clusters, "clusters", 0, "simulated machine width in clusters (0 = as-built 4; 16/64 = scale-up presets)")
	}
	fs.StringVar(&f.Faults, "faults", "", "JSON fault plan (or \"demo\") injected into every simulated machine")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file")
	return f
}

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

// Validate checks the worker and width flags after fs has been parsed:
// -jobs must be positive when the user set it explicitly (the unset
// default 0 means GOMAXPROCS), and -clusters must name a machine that
// validates. Errors are suitable for printing followed by exit 2.
func (f *Flags) Validate(fs *flag.FlagSet) error {
	explicit := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
	if explicit["jobs"] {
		if err := AtLeastOne("jobs", f.Jobs); err != nil {
			return err
		}
	}
	if f.Clusters < 0 {
		return fmt.Errorf("-clusters %d: params: clusters must be ≥ 1, got %d", f.Clusters, f.Clusters)
	}
	if f.Clusters > 0 {
		if err := params.Scaled(f.Clusters).Validate(); err != nil {
			return fmt.Errorf("-clusters %d: %w", f.Clusters, err)
		}
	}
	return nil
}

// AtLeastOne is the check every count flag shares: a value of flag name
// below 1 is a bad invocation, and the error says so (print it, exit 2).
func AtLeastOne(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("-%s must be at least 1, got %d", name, v)
	}
	return nil
}

// Session is one command invocation: the run configuration its
// experiments execute under, plus the profiles and artifacts it owes
// when it ends.
type Session struct {
	// Env is what the invocation's flags asked for: hub (when an artifact
	// was requested), fault plan, worker count, machine width.
	Env tables.Env

	flags *Flags
	prof  *Profiles
}

// Open validates the parsed flags, loads the -faults plan ("demo" is the
// built-in dead-bank-plus-network-fault scenario), starts the profiles
// and builds the hub. The hub exists
// whenever -trace or -metrics is given or observe is set; otherwise
// machines are built uninstrumented at zero cost. Every error is a bad
// invocation: print it and exit 2. Defer Abort, and Close on success.
func (f *Flags) Open(fs *flag.FlagSet, observe bool) (*Session, error) {
	if err := f.Validate(fs); err != nil {
		return nil, err
	}
	var plan *fault.Plan
	if f.Faults == "demo" {
		plan = fault.DemoPlan()
	} else if f.Faults != "" {
		var err error
		if plan, err = fault.Load(f.Faults); err != nil {
			return nil, err
		}
	}
	prof, err := StartProfiles(f.CPUProfile, f.MemProfile)
	if err != nil {
		return nil, err
	}
	var hub *scope.Hub
	if f.Trace != "" || f.Metrics != "" || observe {
		hub = scope.NewHub()
	}
	return &Session{
		Env:   tables.Env{Hub: hub, Faults: plan, Jobs: f.Jobs, Clusters: f.Clusters},
		flags: f,
		prof:  prof,
	}, nil
}

// Close ends a successful run: with attribution set and a hub attached
// it prints the cycle-attribution table to stdout, then it writes the
// -trace/-metrics artifacts and stops the profiles.
func (s *Session) Close(stdout io.Writer, attribution bool) error {
	if hub := s.Env.Hub; hub != nil && attribution {
		fmt.Fprintln(stdout, "cycle attribution")
		fmt.Fprint(stdout, scope.FormatAttribution(hub.Attribution()))
	}
	err := scope.WriteArtifacts(s.Env.Hub, s.flags.Trace, s.flags.Metrics)
	if perr := s.prof.Stop(); err == nil {
		err = perr
	}
	return err
}

// Abort stops the profiles of a run that is ending without Close — the
// failure paths. A no-op after Close. Its own error is dropped: the
// failure that ended the run is the one worth reporting.
func (s *Session) Abort() { _ = s.prof.Stop() }
