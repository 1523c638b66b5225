package tables

import (
	"errors"
	"fmt"
	"io"

	"cedar/internal/scope"
)

// WriteReport is RunAll plus headings: it runs exps under env at sizes s
// and writes a markdown-ish report to w, one section per experiment —
// its table, then one line per claim of the entry (claim.render) —
// and a cycle-attribution section when env has a hub. It returns RunAll's
// error, broken claims only after the whole report. Two identical calls
// write identical bytes.
func WriteReport(w io.Writer, env Env, s Sizes, exps []Experiment) error {
	s = s.resolved()
	fmt.Fprintf(w, "# Cedar evaluation report\n\n")
	base := env.Machine()
	fmt.Fprintf(w, "machine: %d clusters × %d CEs, %.0f MFLOPS peak, %.0f effective\n\n",
		base.Clusters, base.CEsPerCluster, base.PeakMFLOPS(), base.EffectivePeakMFLOPS())

	section := func(title string) { fmt.Fprintf(w, "\n## %s\n\n", title) }
	machine := unjudged(env)
	err := RunAll(env, s, exps, func(e Experiment, res Result) error {
		section(e.Title(s))
		text := res.Format()
		if len(e.claims) > 0 {
			text += "\n"
		}
		for _, c := range e.claims {
			line, _, _ := c.render(res, s, machine)
			text += line + "\n"
		}
		_, err := io.WriteString(w, text)
		return err
	})
	if err != nil && !errors.As(err, new(brokenClaims)) {
		return err
	}
	if env.Hub != nil {
		section("Cycle attribution")
		fmt.Fprint(w, scope.FormatAttribution(env.Hub.Attribution()))
	}
	return err
}
