package tables

import (
	"fmt"
	"io"
	"time"

	"cedar/internal/perfect"
	"cedar/internal/scope"
)

// ReportConfig selects what the full report includes and at what scale.
type ReportConfig struct {
	// RankN is the rank-64 update order (paper: 1K; default 256).
	RankN int
	// FullPPT4 includes the paper's largest CG sizes.
	FullPPT4 bool
	// Codes restricts the Perfect suite (nil = all 13).
	Codes []perfect.Profile
	// Progress receives per-run lines (nil = quiet).
	Progress io.Writer
	// SkipKernels / SkipPerfect / SkipMethodology drop report sections.
	SkipKernels     bool
	SkipPerfect     bool
	SkipMethodology bool
	// Now supplies wall-clock time for the "report generated in ..."
	// trailer. When nil (the default) the trailer is omitted, so two
	// identical runs produce byte-identical reports; CLIs that want the
	// timing pass time.Now.
	Now func() time.Time
	// Env is what every machine the report builds runs under. A hub in
	// it adds a cycle-attribution section.
	Env Env
}

// reportKernels is the report's kernel-level half, in section order.
var reportKernels = []string{"overheads", "t1", "t2", "membw", "net", "prefblock", "sched", "scaled"}

// WriteReport regenerates the paper's complete evaluation and writes a
// markdown-ish report to w. It is the programmatic equivalent of running
// cedarsim, perfect and judge back to back.
func WriteReport(w io.Writer, cfg ReportConfig) error {
	if cfg.RankN == 0 {
		cfg.RankN = 256
	}
	var started time.Time
	if cfg.Now != nil {
		started = cfg.Now()
	}
	fmt.Fprintf(w, "# Cedar evaluation report\n\n")
	env, base := cfg.Env, cfg.Env.Machine()
	fmt.Fprintf(w, "machine: %d clusters × %d CEs, %.0f MFLOPS peak, %.0f effective\n\n",
		base.Clusters, base.CEsPerCluster, base.PeakMFLOPS(), base.EffectivePeakMFLOPS())

	section := func(title string) { fmt.Fprintf(w, "\n## %s\n\n", title) }
	sizes := Sizes{RankN: cfg.RankN, Table2Small: true, MemBWWords: 2048, FullPPT4: cfg.FullPPT4}
	run := func(names ...string) error {
		for _, e := range Experiments(names...) {
			section(e.Title(sizes))
			res, err := e.Run(env, sizes)
			if err != nil {
				return err
			}
			fmt.Fprint(w, res.Format())
		}
		return nil
	}

	if !cfg.SkipKernels {
		if err := run(reportKernels...); err != nil {
			return err
		}
	}

	var suite *SuiteResult
	if !cfg.SkipPerfect || !cfg.SkipMethodology {
		var err error
		suite, err = RunSuite(env, cfg.Codes, cfg.Progress)
		if err != nil {
			return err
		}
	}

	if !cfg.SkipPerfect {
		section("Table 3 — Perfect Benchmarks")
		fmt.Fprint(w, BuildTable3(suite).Format())

		section("Table 4 — manually altered Perfect codes")
		fmt.Fprint(w, BuildTable4(suite).Format())
	}

	if !cfg.SkipMethodology {
		section("Table 5 — instability")
		fmt.Fprint(w, BuildTable5(suite).Format())

		section("Table 6 — restructuring efficiency")
		fmt.Fprint(w, BuildTable6(suite).Format())

		section("Figure 3 — YMP/8 vs Cedar efficiency")
		fmt.Fprint(w, BuildFigure3(suite).Format())

		if err := run("ppt4"); err != nil {
			return err
		}
	}

	if env.Hub != nil {
		section("Cycle attribution")
		fmt.Fprint(w, scope.FormatAttribution(env.Hub.Attribution()))
	}

	if cfg.Now != nil {
		fmt.Fprintf(w, "\n---\nreport generated in %s of host time\n", cfg.Now().Sub(started).Round(time.Second))
	}
	return nil
}
