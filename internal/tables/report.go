package tables

import (
	"cmp"
	"fmt"
	"io"
	"time"

	"cedar/internal/scope"
)

// ReportConfig selects what the full report includes and at what scale.
type ReportConfig struct {
	// Names lists the catalogue entries the report runs, in section
	// order: Evaluation for the whole paper, Kernels for its kernel-level
	// half.
	Names []string
	// Sizes are the problem sizes; a zero RankN is 256 and a zero
	// MemBWWords 2048.
	Sizes Sizes
	// Now supplies wall-clock time for the "report generated in ..."
	// trailer. When nil (the default) the trailer is omitted, so two
	// identical runs produce byte-identical reports; CLIs that want the
	// timing pass time.Now.
	Now func() time.Time
	// Env is what every machine the report builds runs under. A hub in
	// it adds a cycle-attribution section.
	Env Env
}

// WriteReport regenerates the named experiments of the paper's evaluation
// and writes a markdown-ish report to w, one section per name. It is the
// programmatic equivalent of cedarsim over the same names, plus the check:
// on the healthy as-built machine the paper's claims describe, it judges
// every claim of every entry it ran and, after the whole report, returns
// an error naming each broken one (the tally goes to Progress, if set).
func WriteReport(w io.Writer, cfg ReportConfig) error {
	exps, err := Experiments(cfg.Names...)
	if err != nil {
		return err
	}
	sizes := cfg.Sizes
	sizes.RankN = cmp.Or(sizes.RankN, 256)
	sizes.MemBWWords = cmp.Or(sizes.MemBWWords, 2048)
	var started time.Time
	if cfg.Now != nil {
		started = cfg.Now()
	}
	fmt.Fprintf(w, "# Cedar evaluation report\n\n")
	env, base := cfg.Env, cfg.Env.Machine()
	fmt.Fprintf(w, "machine: %d clusters × %d CEs, %.0f MFLOPS peak, %.0f effective\n\n",
		base.Clusters, base.CEsPerCluster, base.PeakMFLOPS(), base.EffectivePeakMFLOPS())

	section := func(title string) { fmt.Fprintf(w, "\n## %s\n\n", title) }
	checking := env.Faults == nil && env.Clusters == 0
	var claims claimTally
	err = RunAll(env, sizes, exps, func(e Experiment, res Result) error {
		if checking {
			claims.check(e, sizes, res)
		}
		section(e.Title(sizes))
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

	if cfg.Now != nil {
		fmt.Fprintf(w, "\n---\nreport generated in %s of host time\n", cfg.Now().Sub(started).Round(time.Second))
	}
	if !checking {
		return nil
	}
	return claims.report(env.Progress)
}
