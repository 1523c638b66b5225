package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cedar/internal/params"
)

func writePlan(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRoundTrip(t *testing.T) {
	path := writePlan(t, `{
		"seed": 99,
		"faults": [
			{"kind": "bank-dead", "module": 5},
			{"kind": "bank-stall", "module": -1, "rate": 0.25, "extra": 8},
			{"kind": "stage-jam", "fabric": "fwd", "stage": 0, "line": -1, "rate": 0.05},
			{"kind": "link-drop", "stage": -1, "line": -1, "rate": 0.001, "from": 100, "until": 5000},
			{"kind": "pfu-nack", "module": -1, "rate": 0.02}
		]
	}`)
	p, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 99 || len(p.Faults) != 5 {
		t.Fatalf("loaded %+v", p)
	}
	want := []Kind{BankDead, BankStall, StageJam, LinkDrop, PFUNack}
	for i, k := range want {
		if p.Faults[i].Kind != k {
			t.Errorf("fault %d kind = %v, want %v", i, p.Faults[i].Kind, k)
		}
	}
	if f := p.Faults[3]; f.From != 100 || f.Until != 5000 {
		t.Errorf("window = [%d, %d), want [100, 5000)", f.From, f.Until)
	}
}

func TestLoadRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"not json", `]`, "invalid"},
		{"unknown field", `{"seed": 1, "faults": [], "typo": true}`, "typo"},
		{"unknown kind", `{"faults": [{"kind": "gremlin"}]}`, "gremlin"},
		{"kind not string", `{"faults": [{"kind": 3}]}`, "string"},
		{"dead bank without module", `{"faults": [{"kind": "bank-dead", "module": -1}]}`, "module"},
		{"stall without extra", `{"faults": [{"kind": "bank-stall", "module": 0, "rate": 0.5}]}`, "extra"},
		{"bad fabric", `{"faults": [{"kind": "stage-jam", "fabric": "diagonal", "stage": -1, "line": -1, "rate": 0.1}]}`, "fabric"},
		{"rate above one", `{"faults": [{"kind": "pfu-nack", "module": -1, "rate": 1.5}]}`, "rate"},
		{"rate missing", `{"faults": [{"kind": "link-drop", "stage": -1, "line": -1}]}`, "rate"},
		{"inverted window", `{"faults": [{"kind": "pfu-nack", "module": -1, "rate": 0.1, "from": 50, "until": 10}]}`, "until"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writePlan(t, tc.body)
			_, err := Load(path)
			if err == nil {
				t.Fatalf("Load accepted %s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestNewInjectorMachineChecks(t *testing.T) {
	p := params.Default()

	if in, err := NewInjector(p, nil); in != nil || err != nil {
		t.Fatalf("nil plan: injector %v, err %v", in, err)
	}
	if in, err := NewInjector(p, &Plan{Seed: 1}); in != nil || err != nil {
		t.Fatalf("empty plan: injector %v, err %v", in, err)
	}

	if _, err := NewInjector(p, &Plan{Faults: []Fault{
		{Kind: BankDead, Module: p.MemModules},
	}}); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range module: err %v", err)
	}

	all := &Plan{}
	for m := 0; m < p.MemModules; m++ {
		all.Faults = append(all.Faults, Fault{Kind: BankDead, Module: m})
	}
	if _, err := NewInjector(p, all); err == nil || !strings.Contains(err.Error(), "dead") {
		t.Fatalf("all-dead plan: err %v", err)
	}

	in, err := NewInjector(p, DemoPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !in.BankDead(3) || in.BankDead(0) || in.DeadModules() != 1 {
		t.Fatalf("demo plan dead set: mod3=%v mod0=%v n=%d", in.BankDead(3), in.BankDead(0), in.DeadModules())
	}
	if !in.Retryable() {
		t.Fatal("demo plan has NACKs, must be retryable")
	}
}

func TestNilInjectorIsHealthy(t *testing.T) {
	var in *Injector
	if in.BankDead(0) || in.BankStall(0, 10) != 0 || in.StageJam("fwd", 0, 0, 10) ||
		in.JamDelay("fwd", 0, 0, 10) != 0 || in.LinkDrop("rev", 1, 2, 10) ||
		in.PFUNack(0, 10) || in.Retryable() || in.DeadModules() != 0 {
		t.Fatal("nil injector injected something")
	}
	in.SetScope(nil) // must not panic
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector stats = %+v", s)
	}
}

// TestDrawsAreDeterministic is the heart of the package: two injectors
// built from equal plans must produce identical fault schedules, and the
// schedule must be a pure function of cycle (re-querying never changes
// the answer).
func TestDrawsAreDeterministic(t *testing.T) {
	p := params.Default()
	mk := func() *Injector {
		in, err := NewInjector(p, &Plan{Seed: 0xABCD, Faults: []Fault{
			{Kind: StageJam, Fabric: "fwd", Stage: -1, Line: -1, Rate: 0.1},
			{Kind: LinkDrop, Stage: -1, Line: -1, Rate: 0.05},
			{Kind: PFUNack, Module: -1, Rate: 0.2},
			{Kind: BankStall, Module: -1, Rate: 0.3, Extra: 4},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(), mk()
	fired := 0
	for cycle := int64(0); cycle < 2000; cycle++ {
		if ja, jb := a.StageJam("fwd", 1, 3, cycle), b.StageJam("fwd", 1, 3, cycle); ja != jb {
			t.Fatalf("cycle %d: jam %v vs %v", cycle, ja, jb)
		}
		if da, db := a.LinkDrop("rev", 0, 7, cycle), b.LinkDrop("rev", 0, 7, cycle); da != db {
			t.Fatalf("cycle %d: drop %v vs %v", cycle, da, db)
		}
		if na, nb := a.PFUNack(2, cycle), b.PFUNack(2, cycle); na != nb {
			t.Fatalf("cycle %d: nack %v vs %v", cycle, na, nb)
		} else if na {
			fired++
		}
		if sa, sb := a.BankStall(5, cycle), b.BankStall(5, cycle); sa != sb {
			t.Fatalf("cycle %d: stall %d vs %d", cycle, sa, sb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	// A 20% nack over 2000 cycles that never fires (or always fires)
	// would mean the draw is broken, not unlucky.
	if fired == 0 || fired == 2000 {
		t.Fatalf("nack fired %d/2000 times", fired)
	}

	// Re-querying one cycle must be idempotent apart from the counters.
	c := mk()
	first := c.StageJam("fwd", 1, 3, 77)
	for i := 0; i < 10; i++ {
		if c.StageJam("fwd", 1, 3, 77) != first {
			t.Fatal("draw at a fixed (component, cycle) changed between queries")
		}
	}
}

// TestDrawStreamsDecorrelated checks different seeds and different
// fault kinds do not share a schedule.
func TestDrawStreamsDecorrelated(t *testing.T) {
	p := params.Default()
	mk := func(seed uint64) *Injector {
		in, err := NewInjector(p, &Plan{Seed: seed, Faults: []Fault{
			{Kind: StageJam, Stage: -1, Line: -1, Rate: 0.5},
			{Kind: LinkDrop, Stage: -1, Line: -1, Rate: 0.5},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(1), mk(2)
	sameSeed, sameKind := 0, 0
	const nCycles = 512
	for cycle := int64(0); cycle < nCycles; cycle++ {
		if a.StageJam("fwd", 0, 0, cycle) == b.StageJam("fwd", 0, 0, cycle) {
			sameSeed++
		}
		if a.StageJam("rev", 1, 1, cycle) == a.LinkDrop("rev", 1, 1, cycle) {
			sameKind++
		}
	}
	// Independent 50% streams agree about half the time; identical
	// streams agree always. Allow wide slack — the draws are fixed by
	// the seed, so this cannot flake.
	if sameSeed > nCycles*3/4 || sameKind > nCycles*3/4 {
		t.Fatalf("streams correlated: seed %d/%d, kind %d/%d", sameSeed, nCycles, sameKind, nCycles)
	}
}

func TestJamDelayWindowed(t *testing.T) {
	p := params.Default()
	in, err := NewInjector(p, &Plan{Faults: []Fault{
		// Rate 1 inside a closed window: the delay is exactly the
		// remaining window length, and zero outside it.
		{Kind: StageJam, Fabric: "fwd", Stage: 0, Line: -1, Rate: 1, From: 10, Until: 20},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if d := in.JamDelay("fwd", 0, 0, 5); d != 0 {
		t.Fatalf("before window: delay %d", d)
	}
	if d := in.JamDelay("fwd", 0, 0, 10); d != 10 {
		t.Fatalf("at window start: delay %d, want 10", d)
	}
	if d := in.JamDelay("fwd", 0, 0, 15); d != 5 {
		t.Fatalf("mid-window: delay %d, want 5", d)
	}
	if d := in.JamDelay("fwd", 0, 0, 20); d != 0 {
		t.Fatalf("after window: delay %d", d)
	}
	if d := in.JamDelay("rev", 0, 0, 15); d != 0 {
		t.Fatalf("wrong fabric: delay %d", d)
	}
}

// TestHash: nil and fault-free plans hash to "", the demo plan to the
// value every committed BENCH header and cedarsim -json header carries, and
// the seed is part of the hash.
func TestHash(t *testing.T) {
	var nilPlan *Plan
	if h := nilPlan.Hash(); h != "" {
		t.Fatalf("nil hash %q", h)
	}
	if h := (&Plan{Seed: 3}).Hash(); h != "" {
		t.Fatalf("empty hash %q", h)
	}
	a := DemoPlan().Hash()
	if a != "fe7e7461041ec078" {
		t.Fatalf("demo hash %q, want fe7e7461041ec078 (bench/BENCH_smoke.json's header)", a)
	}
	other := DemoPlan()
	other.Seed++
	if other.Hash() == a {
		t.Fatal("different seeds share a hash")
	}
}

// TestRetryableCoversEveryBounceAndDrop: a machine arms its PFUs' retry
// machinery exactly when Retryable says so, and a PFU without it panics on
// a NACK (an unanswered element would stall its CE forever). So every
// kind that can bounce a prefetch read or lose one must make a plan
// Retryable, and — since recovery adds timeout watchdogs to the schedule
// — no other kind may. Each kind runs at rate 1 on every module and wire,
// probed over 64 cycles.
func TestRetryableCoversEveryBounceAndDrop(t *testing.T) {
	p := params.Default()
	for k := range kindNames {
		f := Fault{Kind: k, Module: -1, Stage: -1, Line: -1, Rate: 1, Extra: 1}
		if k == BankDead {
			f.Module = 0
		}
		in, err := NewInjector(p, &Plan{Seed: 1, Faults: []Fault{f}})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		loses := false
		for cycle := int64(0); cycle < 64; cycle++ {
			for mod := 0; mod < p.MemModules; mod++ {
				loses = loses || in.PFUNack(mod, cycle)
			}
			for _, fabric := range []string{"fwd", "rev"} {
				for stage := 0; stage < 4; stage++ {
					for line := 0; line < p.NetPorts; line++ {
						loses = loses || in.LinkDrop(fabric, stage, line, cycle)
					}
				}
			}
		}
		if loses != in.Retryable() {
			t.Errorf("%s: bounces or drops prefetch reads: %v, Retryable: %v", k, loses, in.Retryable())
		}
	}
}
