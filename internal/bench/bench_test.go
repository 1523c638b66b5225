package bench

import (
	"bytes"
	"cmp"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cedar/internal/fault"
)

// mini returns a small campaign for runner tests: one machine, three
// workloads (one a semantic duplicate of another under a second name, which
// must simulate to the same outcome), healthy and demo fault plans.
func mini() *Campaign {
	return &Campaign{
		Area:     "mini",
		Machines: []MachineSpec{{Name: "cedar"}},
		Workloads: []WorkloadSpec{
			{Name: "vl", Kind: "vectorload", N: 256},
			{Name: "vl-again", Kind: "vectorload", N: 256},
			{Name: "rank16", Kind: "rank", N: 16, Variant: "pref"},
		},
		Faults: []FaultSpec{{Name: "healthy"}, {Name: "demo", Demo: true}},
	}
}

func TestValidateRejectsBadCampaigns(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Campaign)
		want string
	}{
		{"no area", func(c *Campaign) { c.Area = "" }, "area"},
		{"area with slash", func(c *Campaign) { c.Area = "a/b" }, "bare token"},
		{"bad schema", func(c *Campaign) { c.Schema = 99 }, "schema"},
		{"no machines", func(c *Campaign) { c.Machines = nil }, "machine"},
		{"no workloads", func(c *Campaign) { c.Workloads = nil }, "workload"},
		{"dup machine", func(c *Campaign) { c.Machines = append(c.Machines, MachineSpec{Name: "cedar"}) }, "duplicate"},
		{"unnamed workload", func(c *Campaign) { c.Workloads[0].Name = "" }, "name"},
		{"slash in name", func(c *Campaign) { c.Workloads[0].Name = "a/b" }, "'/'"},
		{"bad kind", func(c *Campaign) { c.Workloads[0].Kind = "mystery" }, "unknown kind"},
		{"bad variant", func(c *Campaign) { c.Workloads[2].Variant = "turbo" }, "variant"},
		{"negative size", func(c *Campaign) { c.Workloads[0].N = -1 }, "non-negative"},
		{"bad fabric", func(c *Campaign) { c.Machines[0].Fabric = "token-ring" }, "fabric"},
		{"impossible machine", func(c *Campaign) { c.Machines[0].Clusters = 64 }, "params: NetPorts"},
		{"zero jobs", func(c *Campaign) { c.Jobs = []int{0} }, "jobs"},
	}
	for _, tc := range cases {
		c := mini()
		tc.mut(c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := mini().Validate(); err != nil {
		t.Fatalf("mini campaign should validate: %v", err)
	}
}

// TestUnknownKindErrorListsEveryKind: the rejection names every kind the
// validator accepts — the list is derived from kinds, not kept beside it.
func TestUnknownKindErrorListsEveryKind(t *testing.T) {
	err := WorkloadSpec{Name: "w", Kind: "sort"}.Validate()
	if err == nil {
		t.Fatal("kind \"sort\" validated")
	}
	for name := range kinds {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-kind error %q omits the accepted kind %q", err, name)
		}
	}
}

func TestFaultSpecSourcesAreExclusive(t *testing.T) {
	fs := FaultSpec{Name: "both", Demo: true, Plan: fault.DemoPlan()}
	if _, err := fs.Resolve(); err == nil {
		t.Fatal("demo+plan should be rejected")
	}
	plan, err := FaultSpec{Name: "healthy"}.Resolve()
	if err != nil || plan != nil {
		t.Fatalf("healthy spec: got plan=%v err=%v", plan, err)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	// "shards" was a campaign axis until the intra-run parallel engine
	// was removed, and a fault's "path" named a plan file until the
	// vocabulary stopped naming files; a config still carrying either
	// must fail by name, not run with the setting silently dropped.
	for name, extra := range map[string]string{
		"surprise": `"surprise":1`,
		"shards":   `"shards":[1,4]`,
		"path":     `"faults":[{"name":"f","path":"p.json"}]`,
	} {
		path := filepath.Join(t.TempDir(), "c.json")
		if err := os.WriteFile(path, []byte(`{"area":"x","machines":[{"name":"m"}],"workloads":[{"name":"w","kind":"trimat"}],`+extra+`}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("unknown field %s should fail load by name, got %v", name, err)
		}
	}
}

// TestRunDeterministicAcrossJobs is the campaign runner's determinism
// gate: one Run at jobs 1 and 8, which byte-compares its passes, on the
// omega machine, the crossbar one and a scaled 8-cluster one, and then a
// stepped Run, whose deterministic section must be the same bytes. It runs
// under -race too, so the detector watches the jobs = 8 pass execute in
// parallel.
func TestRunDeterministicAcrossJobs(t *testing.T) {
	c := mini()
	c.Machines = append(c.Machines, MachineSpec{Name: "cedar-xbar", Fabric: "crossbar"}, MachineSpec{Name: "scaled8", Scaled: 8})
	c.Jobs = []int{1, 8}
	event, err := Run(c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Jobs = []int{2}
	stepped, err := Run(c, RunOptions{Stepped: true})
	if err != nil {
		t.Fatal(err)
	}
	be, err := event.DeterministicBytes()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := stepped.DeterministicBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(be, bs) {
		t.Fatalf("deterministic sections differ between the event-wheel and the stepped engine:\n%s\n---\n%s", be, bs)
	}
}

func TestRunOutcomes(t *testing.T) {
	art, err := Run(mini(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(art.Deterministic.Points), 6; got != want {
		t.Fatalf("points: got %d, want %d", got, want)
	}
	if art.Header.Points != 6 || art.Header.Tool != "cedarbench" || art.Header.Schema != SchemaVersion {
		t.Fatalf("bad header: %+v", art.Header)
	}
	byID := map[string]PointResult{}
	for _, p := range art.Deterministic.Points {
		if p.SimCycles <= 0 {
			t.Errorf("%s: no simcycles", p.ID)
		}
		if len(p.Metrics) == 0 {
			t.Errorf("%s: no metrics captured", p.ID)
		}
		if len(p.Attribution) == 0 {
			t.Errorf("%s: no attribution captured", p.ID)
		}
		byID[p.ID] = p
	}
	// vl and vl-again are the same point under two names: each simulates,
	// and they agree.
	dup, orig := byID["cedar/vl-again/healthy"], byID["cedar/vl/healthy"]
	if dup.SimCycles != orig.SimCycles {
		t.Fatalf("semantically equal points disagree: %d vs %d", dup.SimCycles, orig.SimCycles)
	}
	healthy, demo := byID["cedar/rank16/healthy"], byID["cedar/rank16/demo"]
	if healthy.Faults.Injected != 0 {
		t.Fatalf("healthy point reports injections: %+v", healthy.Faults)
	}
	if demo.Faults.Injected == 0 {
		t.Fatalf("demo-fault point reports no injections")
	}
	if demo.SimCycles <= healthy.SimCycles {
		t.Errorf("demo faults should slow the run: %d vs %d", demo.SimCycles, healthy.SimCycles)
	}
}

// TestWorkloadKindsNameEveryField pins the table of which fields each
// kind reads: every WorkloadSpec field but Name and Kind is read by some
// kind (so a field added to the spec cannot be left out of the table),
// and for each kind a valid value validates in a field the kind reads and
// a non-zero one is rejected, by JSON name, in one it does not.
func TestWorkloadKindsNameEveryField(t *testing.T) {
	// required is the least spec of a kind that reads names and has no
	// default for them; valid is a name each kind knows, by field.
	required := map[string]WorkloadSpec{
		"perfect": {Code: "QCD", Variant: "kap"},
		"xdoall":  {Variant: "empty", Sched: "self"},
	}
	valid := map[string]map[string]string{
		"rank":    {"variant": "pref"},
		"perfect": {"code": "TRACK", "variant": "serial"},
		"xdoall":  {"variant": "imbalanced", "sched": "guided"},
	}
	typ := reflect.TypeOf(WorkloadSpec{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		if field.Name == "Name" || field.Name == "Kind" {
			continue
		}
		jsonName, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		readers := 0
		for kind, k := range kinds {
			reads := k.reads
			ws := required[kind]
			ws.Name, ws.Kind = "w", kind
			switch f := reflect.ValueOf(&ws).Elem().Field(i); f.Kind() {
			case reflect.String:
				f.SetString(cmp.Or(valid[kind][jsonName], "x"))
			case reflect.Int:
				f.SetInt(3)
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("WorkloadSpec.%s has kind %s: teach this test to set it", field.Name, f.Kind())
			}
			err := ws.Validate()
			if slices.Contains(reads, jsonName) {
				readers++
				if err != nil {
					t.Errorf("%s with %s set: %v, want it to validate", kind, jsonName, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), strconv.Quote(jsonName)) {
				t.Errorf("%s with %s set: err = %v, want a rejection naming the field", kind, jsonName, err)
			}
		}
		if readers == 0 {
			t.Errorf("no kind in kinds reads WorkloadSpec.%s (%q)", field.Name, jsonName)
		}
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	art, err := Run(&Campaign{
		Area:      "rt",
		Machines:  []MachineSpec{{Name: "m"}},
		Workloads: []WorkloadSpec{{Name: "w", Kind: "trimat", N: 16}},
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_rt.json")
	if err := art.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	b0, _ := art.DeterministicBytes()
	b1, _ := got.DeterministicBytes()
	if !bytes.Equal(b0, b1) {
		t.Fatal("round trip changed the deterministic section")
	}

	// A wrong schema version must be refused.
	got.Header.Schema = SchemaVersion + 1
	raw, _ := got.Encode()
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifact(bad); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("future schema should be refused, got %v", err)
	}
}
