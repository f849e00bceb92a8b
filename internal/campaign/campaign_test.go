package campaign

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/bayes"
	"repro/internal/cpu"
	"repro/internal/plan"
	"repro/internal/service"
)

// newServices wires a campaign to a real in-process service and
// planner, the same paths the server front end exposes.
func newServices() Services {
	svc := service.New(service.Config{WorkersPerShard: 2, CalibrationRuns: 5})
	return Services{Measure: svc.Measure, Infer: svc.Infer, Plan: plan.New(svc).Do}
}

// testConfig disables the janitor so tests control time.
func testConfig() Config { return Config{SweepInterval: -1} }

// collect replays and follows a campaign's stream until its end event,
// returning every NDJSON line.
func collect(t testing.TB, camp *Campaign) [][]byte {
	t.Helper()
	camp.Subscribe()
	defer camp.Unsubscribe()
	deadline := time.After(5 * time.Minute)
	var all [][]byte
	for i := 0; ; {
		lines, next, wait, done := camp.Events(i)
		all = append(all, lines...)
		i = next
		if len(lines) > 0 {
			continue
		}
		if done {
			return all
		}
		select {
		case <-wait:
		case <-deadline:
			t.Fatal("campaign did not finish in time")
		}
	}
}

// decode unmarshals a stream's lines.
func decode(t testing.TB, lines [][]byte) []api.CampaignEvent {
	t.Helper()
	events := make([]api.CampaignEvent, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &events[i]); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
	}
	return events
}

// smallRequest is a quick sweep that still exercises every check: with
// six programs every class appears, the inference check runs on
// programs 0, 2, 4 and the planner check on programs 0 and 3.
func smallRequest() api.CampaignRequest {
	return api.CampaignRequest{
		Seed:     3,
		Programs: 6,
		Runs:     4,
		Scale:    2,

		InferEvery:  2,
		PlanEvery:   3,
		EngineEvery: 1,
	}
}

// TestCampaignStockClean is the system's self-consistency proof at
// campaign scale: over stock processor models, every adversarial check
// passes — the sweep completes with zero findings.
func TestCampaignStockClean(t *testing.T) {
	reg := NewRegistry(newServices(), testConfig())
	defer reg.Close()
	camp, err := reg.Open(smallRequest())
	if err != nil {
		t.Fatal(err)
	}
	events := decode(t, collect(t, camp))
	var programs int
	var summary *api.CampaignSummary
	for _, ev := range events {
		switch ev.Type {
		case api.CampaignEventFinding:
			t.Errorf("finding against stock models: %+v", *ev.Finding)
		case api.CampaignEventProgram:
			programs++
			if ev.Program.Checked == 0 || ev.Program.Checked != ev.Program.Covered {
				t.Errorf("program %d: covered %d of %d checks", ev.Program.Index, ev.Program.Covered, ev.Program.Checked)
			}
		case api.CampaignEventSummary:
			summary = ev.Summary
		}
	}
	if programs != 6 {
		t.Errorf("stream has %d program events, want 6", programs)
	}
	if summary == nil || summary.Findings != 0 {
		t.Errorf("summary = %+v, want zero findings", summary)
	}
	last := events[len(events)-1]
	if last.Type != api.CampaignEventEnd || last.Reason != api.SessionDone {
		t.Errorf("stream ends with %+v", last)
	}
	if st := camp.State(); st != api.SessionDone {
		t.Errorf("state = %s", st)
	}
}

// TestCampaignDeterminism: identical requests produce byte-identical
// NDJSON streams, independent of worker scheduling.
func TestCampaignDeterminism(t *testing.T) {
	reg := NewRegistry(newServices(), Config{SweepInterval: -1, Concurrency: 3})
	defer reg.Close()
	req := smallRequest()
	a, err := reg.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := collect(t, a), collect(t, b)
	if len(la) != len(lb) {
		t.Fatalf("streams differ in length: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if !bytes.Equal(la[i], lb[i]) {
			t.Fatalf("streams diverge at line %d:\n%s\n%s", i, la[i], lb[i])
		}
	}
	if a.Config().Key() != b.Config().Key() {
		t.Fatal("identical requests normalized to different keys")
	}
}

// TestCampaignPlantedRefutation is the campaign's power proof: against
// a deliberately mis-specified invariant set (a model claiming retire
// width 1, refuted by any program with IPC above 1) the sweep must
// produce invariant-refuted findings — and the same sweep against the
// stock library runs clean (TestCampaignStockClean).
func TestCampaignPlantedRefutation(t *testing.T) {
	cfg := testConfig()
	cfg.Invariants = func(m *cpu.Model) bayes.Model {
		bad := *m
		bad.RetireWidth = 1
		return bayes.Library(&bad)
	}
	reg := NewRegistry(newServices(), cfg)
	defer reg.Close()
	req := smallRequest()
	req.InferEvery = 1 // attack every program
	camp, err := reg.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	events := decode(t, collect(t, camp))
	refuted := 0
	for _, ev := range events {
		if ev.Type == api.CampaignEventFinding && ev.Finding.Check == api.CheckInvariantRefuted {
			refuted++
			if ev.Finding.Constraint == "" || ev.Finding.Sigma <= bayes.ViolationSigma {
				t.Errorf("refutation finding lacks evidence: %+v", *ev.Finding)
			}
		}
	}
	if refuted == 0 {
		t.Fatal("campaign failed to refute a model with planted retire width 1")
	}
	if last := events[len(events)-1]; last.Reason != api.SessionDone {
		t.Errorf("campaign did not complete: %+v", last)
	}
	snap := camp.Snapshot()
	if snap.FindingsTotal != refuted {
		t.Errorf("snapshot counts %d findings, stream has %d", snap.FindingsTotal, refuted)
	}
	if len(snap.Findings) == 0 {
		t.Error("snapshot retains no findings")
	}
}

// TestCampaignCoverageAudit is the acceptance-scale audit: across
// hundreds of generated programs, calibrated confidence intervals must
// contain the analytic ground truth at their nominal rate (within the
// audit's binomial slack). The observed rate is logged for the record.
func TestCampaignCoverageAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("500-program sweep")
	}
	reg := NewRegistry(newServices(), Config{SweepInterval: -1, Concurrency: 4})
	defer reg.Close()
	camp, err := reg.Open(api.CampaignRequest{
		Seed:       7,
		Programs:   500,
		Processors: []string{"K8"},
		Runs:       4,
		Scale:      2,
		// Coverage only: the cross-checks are audited elsewhere and would
		// triple the sweep's cost.
		InferEvery:  -1,
		PlanEvery:   -1,
		EngineEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := decode(t, collect(t, camp))
	var summary *api.CampaignSummary
	for _, ev := range events {
		if ev.Type == api.CampaignEventFinding {
			t.Errorf("finding against stock models: %+v", *ev.Finding)
		}
		if ev.Type == api.CampaignEventSummary {
			summary = ev.Summary
		}
	}
	if summary == nil {
		t.Fatal("no summary event")
	}
	cov := summary.Coverage
	if cov.N < 500 {
		t.Fatalf("audited %d intervals, want >= 500", cov.N)
	}
	t.Logf("coverage audit: %d/%d intervals missed the analytic truth (rate %.4f, nominal %.4f, bound %.4f)",
		cov.Misses, cov.N, cov.Rate, cov.Nominal, cov.Bound)
	if cov.Rate > cov.Bound {
		t.Errorf("miss rate %.4f exceeds the binomial bound %.4f", cov.Rate, cov.Bound)
	}
}

// TestRegistryLimits: the active bound rejects extra campaigns, and
// deletion ends a sweep early with a deleted end event.
func TestRegistryLimits(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCampaigns = 1
	reg := NewRegistry(newServices(), cfg)
	defer reg.Close()
	req := api.CampaignRequest{Programs: 50, Runs: 4}
	camp, err := reg.Open(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open(req); err == nil {
		t.Fatal("second campaign accepted over limit 1")
	}
	if _, err := reg.Open(api.CampaignRequest{Runs: 1}); err == nil {
		t.Fatal("invalid request accepted")
	}
	if err := reg.Delete(camp.ID); err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete(camp.ID); err == nil {
		t.Fatal("double delete succeeded")
	}
	lines := collect(t, camp)
	var last api.CampaignEvent
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != api.CampaignEventEnd || last.Reason != api.SessionDeleted {
		t.Errorf("deleted campaign ends with %+v", last)
	}
	if _, n := reg.Stats(); n != 0 {
		t.Errorf("registry retains %d campaigns after delete", n)
	}
}

// TestRegistrySweepEvictsIdle: the janitor's rule, driven directly with
// a fake clock — an idle finished campaign is evicted, an ended one
// with an attached stream is not.
func TestRegistrySweepEvictsIdle(t *testing.T) {
	now := time.Unix(0, 0)
	cfg := testConfig()
	cfg.Now = func() time.Time { return now }
	reg := NewRegistry(newServices(), cfg)
	defer reg.Close()
	camp, err := reg.Open(api.CampaignRequest{Programs: 1, Runs: 2, EngineEvery: -1, InferEvery: -1, PlanEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, camp) // wait for completion (also touches the log at t=0)
	if n := reg.Sweep(); n != 0 {
		t.Fatalf("fresh campaign evicted (%d)", n)
	}
	camp.Subscribe()
	now = now.Add(time.Hour)
	if n := reg.Sweep(); n != 0 {
		t.Fatalf("subscribed campaign evicted (%d)", n)
	}
	camp.Unsubscribe()
	now = now.Add(time.Hour)
	if n := reg.Sweep(); n != 1 {
		t.Fatalf("idle campaign not evicted (%d)", n)
	}
	if _, err := reg.Get(camp.ID); err == nil {
		t.Fatal("evicted campaign still addressable")
	}
}

// TestRegistryCloseDrains: Close ends a running sweep with a drained
// end event and refuses new campaigns.
func TestRegistryCloseDrains(t *testing.T) {
	reg := NewRegistry(newServices(), testConfig())
	camp, err := reg.Open(api.CampaignRequest{Programs: MaxCampaignProgramsForTest, Runs: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	lines := collect(t, camp)
	var last api.CampaignEvent
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != api.CampaignEventEnd || last.Reason != api.SessionDrained {
		t.Errorf("drained campaign ends with %+v", last)
	}
	if _, err := reg.Open(api.CampaignRequest{}); err == nil {
		t.Fatal("closed registry accepted a campaign")
	}
}

// MaxCampaignProgramsForTest sizes the drain test's sweep: long enough
// that Close lands mid-sweep on any machine.
const MaxCampaignProgramsForTest = 200

// BenchmarkCampaignSweep measures one full default-cadence campaign
// program (all processors, every check) end to end.
func BenchmarkCampaignSweep(b *testing.B) {
	reg := NewRegistry(newServices(), Config{SweepInterval: -1, Concurrency: 1})
	defer reg.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		camp, err := reg.Open(api.CampaignRequest{
			Seed:     uint64(i + 1),
			Programs: 1,
			Runs:     4,
			Scale:    2,
		})
		if err != nil {
			b.Fatal(err)
		}
		camp.Subscribe()
		for j := 0; ; {
			lines, next, wait, done := camp.Events(j)
			j = next
			if len(lines) > 0 {
				continue
			}
			if done {
				break
			}
			<-wait
		}
		camp.Unsubscribe()
		if st := camp.State(); st != api.SessionDone {
			b.Fatalf("campaign ended %s", st)
		}
	}
}
