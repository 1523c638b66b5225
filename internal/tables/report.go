package tables

import (
	"fmt"
	"io"

	"cedar/internal/params"
	"cedar/internal/scope"
)

// WriteReport is RunAll plus headings: it runs exps under env at sizes s
// and writes a markdown-ish report to w, one section per experiment, and
// a cycle-attribution section when env has a hub. It also checks: on the
// healthy default machine the paper's claims describe, it judges every
// claim of every entry it ran and, after the whole report, returns an
// error naming each broken one (the tally goes to Progress, if set). Two
// identical calls write identical bytes.
func WriteReport(w io.Writer, env Env, s Sizes, exps []Experiment) error {
	s = s.resolved()
	fmt.Fprintf(w, "# Cedar evaluation report\n\n")
	base := env.Machine()
	fmt.Fprintf(w, "machine: %d clusters × %d CEs, %.0f MFLOPS peak, %.0f effective\n\n",
		base.Clusters, base.CEsPerCluster, base.PeakMFLOPS(), base.EffectivePeakMFLOPS())

	section := func(title string) { fmt.Fprintf(w, "\n## %s\n\n", title) }
	// Decided by the machine, not the flag: -clusters 4 builds Default.
	checking := env.Faults == nil && base == params.Default()
	var claims claimTally
	err := RunAll(env, s, exps, func(e Experiment, res Result) error {
		if checking {
			claims.check(e, s, res)
		}
		section(e.Title(s))
		_, err := fmt.Fprint(w, res.Format())
		return err
	})
	if err != nil {
		return err
	}

	if env.Hub != nil {
		section("Cycle attribution")
		fmt.Fprint(w, scope.FormatAttribution(env.Hub.Attribution()))
	}
	if !checking {
		return nil
	}
	return claims.report(env.Progress)
}
