package tables

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"cedar/internal/manifest"
	"cedar/internal/perfect"
	"cedar/internal/scope"
)

// reportPass is one WriteReport call and everything it can be observed
// through: the report, its Progress lines and its hub (nil if unobserved).
type reportPass struct {
	report, progress string
	hub              *scope.Hub
	err              error
}

// pointLines counts the pass's per-point Progress lines: one per
// simulated point.
func (p reportPass) pointLines() int {
	n := 0
	for _, line := range strings.Split(p.progress, "\n") {
		if strings.HasPrefix(line, "  ") {
			n++
		}
	}
	return n
}

// tally is the pass's claims tally, the last Progress line.
func (p reportPass) tally() string {
	lines := strings.Split(strings.TrimSpace(p.progress), "\n")
	return lines[len(lines)-1]
}

func writeReport(env Env, s Sizes, names ...string) reportPass {
	exps, err := Experiments(names...)
	if err != nil {
		return reportPass{err: err}
	}
	var report, progress strings.Builder
	env.Progress = &progress
	err = WriteReport(&report, env, s, exps)
	return reportPass{report: report.String(), progress: progress.String(), hub: env.Hub, err: err}
}

// The report gates read these passes, each built the first time a gate
// asks for it: P1, the whole evaluation plus degraded at the smallest
// sizes every claim holds at — n = 96, Table 2's reduced slices, all 13
// codes — which is every catalogue entry, so the model manifest hashes
// it; P2, the kernel-level report at n = 32 twice, each under its own hub.
var (
	modelSizes     = Sizes{RankN: 96, Codes: perfect.All()}
	evaluationPass = sync.OnceValue(func() reportPass {
		return writeReport(Env{}, modelSizes, append(Evaluation[:len(Evaluation):len(Evaluation)], "degraded")...)
	})
	kernelPasses = sync.OnceValue(func() [2]reportPass {
		var passes [2]reportPass
		for i := range passes {
			passes[i] = writeReport(Env{Hub: scope.NewHub()}, Sizes{RankN: 32}, Kernels...)
		}
		return passes
	})
)

// reportGate skips a report gate under -short and under -race, where whole
// reports are too slow: tier-1's unraced pass is the one that runs the
// report gates.
func reportGate(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("report generation in -short mode")
	}
	if raceEnabled {
		t.Skip("full-report simulation is too slow under the race detector")
	}
}

// TestEvaluationHoldsThePapersClaims is the paper checking itself in one
// pass, P1: RunAll judges each claim of each entry, none may break
// and none may be skipped, and every section is in the report.
func TestEvaluationHoldsThePapersClaims(t *testing.T) {
	reportGate(t)
	p := evaluationPass()
	if p.err != nil {
		t.Fatal(p.err)
	}
	exps, _ := Experiments(Evaluation...)
	claims := 0
	for _, e := range exps {
		if len(e.claims) == 0 {
			t.Errorf("%s carries no claim", e.Name)
		}
		claims += len(e.claims)
	}
	if tally := p.tally(); !strings.HasPrefix(tally, fmt.Sprintf("claims: %d held, 0 skipped, ", claims)) || !strings.HasSuffix(tally, ", 0 broken") {
		t.Errorf("tally %q, want all %d claims held and none skipped or broken", tally, claims)
	}
	for _, want := range []string{"# Cedar evaluation report", "Table 1", "Table 2", "GM/no-pref", "GM/cache", "lat@32",
		"runtime overheads", "memory characterization", "network ablation", "Turn93", "scheduling ablation", "guided",
		"scaled Cedar", "Table 3", "Table 4", "Table 5", "Table 6", "Figure 3", "PPT4", "QCD", "SPICE"} {
		if !strings.Contains(p.report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestPaperFiguresOnlyInClaims keeps each paper figure stated once: in
// P1's report every line that mentions the paper is one of its section's
// claim lines — the entry's claims, in order, closing the section — so no
// Format types a paper figure that no claim judges.
func TestPaperFiguresOnlyInClaims(t *testing.T) {
	reportGate(t)
	p := evaluationPass()
	if p.err != nil {
		t.Fatal(p.err)
	}
	titled := map[string]Experiment{}
	for _, e := range catalogue {
		titled[e.Title(modelSizes)] = e
	}
	sections := strings.Split(p.report, "\n## ")
	for _, sec := range sections {
		lines := strings.Split(strings.TrimRight(sec, "\n"), "\n")
		e := titled[lines[0]] // the report's header is no entry: no claims
		body, claimed := lines[:len(lines)-len(e.claims)], lines[len(lines)-len(e.claims):]
		for i, c := range e.claims {
			if !strings.HasPrefix(claimed[i], c.id+": measured ") || !strings.Contains(claimed[i], ", paper ") {
				t.Errorf("%s: line %q, want claim %q rendered", e.Name, claimed[i], c.id)
			}
		}
		for _, line := range body {
			if strings.Contains(strings.ToLower(line), "paper") {
				t.Errorf("%q mentions the paper but is no claim's line (section %q)", line, lines[0])
			}
		}
	}
	if len(sections) != len(catalogue)+1 {
		t.Errorf("P1 has %d sections, want every one of the %d entries", len(sections)-1, len(catalogue))
	}
}

// TestKnownDeviationsAreListed: EXPERIMENTS.md's "Known deviations,
// summarized" states each deviating claim's numbers on a line of its own,
// "- `<entry>: <id>` is <model> ± <tol> vs <paper>", rendered from the
// claim, and has no other such line: the list is checked, not retyped.
// It simulates nothing, so it runs under -race too.
func TestKnownDeviationsAreListed(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, found := strings.Cut(string(doc), "\n## Known deviations, summarized\n")
	if !found {
		t.Fatal(`EXPERIMENTS.md has no "Known deviations, summarized" section`)
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var listed, want []string
	for _, line := range strings.Split(sec, "\n") {
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "- `") {
			listed = append(listed, line)
		}
	}
	for _, e := range catalogue {
		for _, c := range e.claims {
			if c.deviation != "" {
				want = append(want, fmt.Sprintf("- `%s: %s` is %.4g ± %.4g vs %.4g", e.Name, c.id, c.measured, c.tol, c.paper))
			}
		}
	}
	for _, line := range want {
		if !slices.Contains(listed, line) {
			t.Errorf("EXPERIMENTS.md does not list %s", line)
		}
	}
	for _, line := range listed {
		if !slices.Contains(want, line) {
			t.Errorf("EXPERIMENTS.md lists %s, which no deviating claim renders", line)
		}
	}
}

// manifest is the model as one value: a "<sha256>  <name>" line per
// catalogue entry in Names order, hashing the entry's section of the
// pass's report, then the Progress line (scope, exact cycles, MFLOPS) of
// each point the entry lists at s, in list order. The pass must have run
// every entry.
func (p reportPass) manifest(s Sizes) (string, error) {
	sections := map[string]string{}
	for _, sec := range strings.Split(p.report, "\n## ")[1:] {
		title, _, _ := strings.Cut(sec, "\n")
		sections[title] = "## " + sec
	}
	lines := map[string]string{}
	for _, line := range strings.Split(p.progress, "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		scope := strings.Fields(line)[0]
		if _, dup := lines[scope]; dup {
			return "", fmt.Errorf("scope %s simulated twice", scope)
		}
		lines[scope] = line + "\n"
	}
	exps, _ := Experiments(Names()...)
	var out strings.Builder
	for _, e := range exps {
		sec, ok := sections[e.Title(s)]
		if !ok {
			return "", fmt.Errorf("%s: no %q section", e.Name, e.Title(s))
		}
		hashed := []byte(sec)
		for _, pt := range e.points(Env{}, s.resolved()) {
			line, ok := lines[pt.scope]
			if !ok {
				return "", fmt.Errorf("%s: point %s wrote no Progress line", e.Name, pt.scope)
			}
			hashed = append(hashed, line...)
		}
		out.WriteString(manifest.Line(e.Name, hashed))
	}
	return out.String(), nil
}

// TestModelManifest is the cross-commit pin on the whole model: P1's
// manifest must equal testdata/model.sha256, so one cycle moved in any
// catalogue point fails tier-1 and names its entries. On a mismatch
// manifest.Check prints the replacement file; copy it over the committed
// one only for a deliberate model change (DESIGN.md, "Byte identity as
// committed values").
func TestModelManifest(t *testing.T) {
	reportGate(t)
	p := evaluationPass()
	if p.err != nil {
		t.Fatal(p.err)
	}
	got, err := p.manifest(modelSizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := manifest.Check("testdata/model.sha256", got); err != nil {
		t.Error(err)
	}
}

// TestWriteReportGolden is the cross-commit half of the byte-identity
// invariant: the kernel-level report of P2, up to the section its hub
// adds, must equal the bytes committed in testdata — which were written
// without a hub, so this also shows a hub changes nothing above that
// section. The in-process jobs/stepped gates compare a build with itself
// and cannot see a refactor that moves every mode the same way; this can.
// Regenerate the file only for a deliberate model change.
func TestWriteReportGolden(t *testing.T) {
	reportGate(t)
	want, err := os.ReadFile("testdata/report_kernels_n32.golden")
	if err != nil {
		t.Fatal(err)
	}
	p := kernelPasses()[0]
	if p.err != nil {
		t.Fatal(p.err)
	}
	got, _, found := strings.Cut(p.report, "\n## Cycle attribution\n")
	if !found {
		t.Fatal("the observed kernel report has no cycle-attribution section")
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("kernel report differs from testdata/report_kernels_n32.golden:\n%s", got)
	}
}

// TestWriteReportKernelsOnly reads P2's first pass: every kernel-level
// section is there, the Perfect suite is not, and no claim broke.
func TestWriteReportKernelsOnly(t *testing.T) {
	reportGate(t)
	p := kernelPasses()[0]
	if p.err != nil {
		t.Fatal(p.err)
	}
	for _, want := range []string{
		"# Cedar evaluation report",
		"Table 1", "Table 2", "GM/no-pref",
		"runtime overheads", "memory characterization",
		"network ablation", "scheduling ablation", "scaled Cedar",
	} {
		if !strings.Contains(p.report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(p.report, "Table 3") {
		t.Error("kernels-only report should skip the Perfect suite")
	}
	if tally := p.tally(); !strings.HasSuffix(tally, ", 0 broken") {
		t.Errorf("tally %q, want no claim broken", tally)
	}
}

// TestWriteReportMethodologySections: the Perfect suite's five sections
// on two codes, and none of the kernel-level ones.
func TestWriteReportMethodologySections(t *testing.T) {
	reportGate(t)
	p := writeReport(Env{}, Sizes{Codes: []perfect.Profile{perfect.QCD(), perfect.SPICE()}}, "t3", "t4", "t5", "t6", "fig3")
	if p.err != nil {
		t.Fatal(p.err)
	}
	for _, want := range []string{
		"Table 3", "Table 4", "Table 5", "Table 6", "Figure 3",
		"QCD", "SPICE",
	} {
		if !strings.Contains(p.report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(p.report, "Table 1 —") {
		t.Error("kernel sections should be skipped")
	}
}

// TestWriteReportDeterministic is the report half of the determinism
// invariant: P2's two identical runs produce byte-identical output (see
// DESIGN.md "Byte identity as committed values"). Each report observes its own hub
// and writes its own Progress, so the second is seen to simulate every
// point the first did: nothing is kept between calls.
func TestWriteReportDeterministic(t *testing.T) {
	reportGate(t)
	passes := kernelPasses()
	exps, _ := Experiments(Kernels...)
	points := 0
	for _, e := range exps {
		points += len(e.points(Env{}, Sizes{RankN: 32}))
	}
	for i, p := range passes {
		if p.err != nil {
			t.Fatal(p.err)
		}
		if got := p.pointLines(); got != points {
			t.Errorf("report %d wrote %d point lines, want every one of the %d points simulated", i+1, got, points)
		}
	}
	first, second := passes[0].report, passes[1].report
	if m1, m2 := len(passes[0].hub.Snapshot()), len(passes[1].hub.Snapshot()); m1 == 0 || m2 != m1 {
		t.Errorf("the reports registered %d and %d metrics: want the same nonzero count, every point simulated twice", m1, m2)
	}
	if first != second {
		line := 1
		for i := 0; i < len(first) && i < len(second); i++ {
			if first[i] != second[i] {
				t.Fatalf("reports diverge at byte %d (line %d)", i, line)
			}
			if first[i] == '\n' {
				line++
			}
		}
		t.Fatalf("reports differ in length: %d vs %d bytes", len(first), len(second))
	}
	if strings.Contains(first, "report generated") {
		t.Error("a library report must carry no wall-clock trailer")
	}
}
