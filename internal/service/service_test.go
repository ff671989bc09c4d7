package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"morrigan/internal/core"
	"morrigan/internal/machine"
	"morrigan/internal/resultstore"
	"morrigan/internal/runner"
	"morrigan/internal/telemetry"
	"morrigan/internal/tracestore"
	"morrigan/internal/workloads"
)

// testSubmission is a small two-machine × two-workload sweep every test can
// afford to simulate for real.
func testSubmission(tag string) Submission {
	morr := machine.Default()
	morr.Prefetcher = machine.Morrigan(core.DefaultConfig())
	return Submission{
		Experiment: "svc-test",
		Tag:        tag,
		Machines: []MachineEntry{
			{Config: "baseline", Spec: machine.Default()},
			{Config: "morrigan", Spec: morr},
		},
		Workloads: []string{"qmm-srv-01", "qmm-srv-02"},
		Warmup:    5_000,
		Measure:   20_000,
	}
}

func newTestService(t *testing.T, opt Options) *Service {
	t.Helper()
	if opt.Tenants == nil {
		opt.Tenants = []TenantConfig{{Name: "alice", Token: "tok-alice", MaxQueuedJobs: 64}}
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitDone(t *testing.T, s *Service, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, ok := s.Wait(ctx, id)
	if !ok {
		t.Fatalf("campaign %s did not complete: %+v", id, st)
	}
	if st.State != StateDone {
		t.Fatalf("campaign %s state = %s (%s), want done", id, st.State, st.Error)
	}
	return st
}

// TestSubmitProducesCLIIdenticalStats is the service's core parity guarantee:
// a campaign submitted over HTTP yields, job for job, the same statistics as
// running the equivalent jobs directly through the runner (the CLI path).
func TestSubmitProducesCLIIdenticalStats(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sub := testSubmission("")
	body, _ := json.Marshal(sub)
	req, _ := http.NewRequest("POST", srv.URL+"/api/v1/campaigns", strings.NewReader(string(body)))
	req.Header.Set("Authorization", "Bearer tok-alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID != CampaignID("alice", sub) {
		t.Errorf("campaign id = %s, want the content-derived %s", st.ID, CampaignID("alice", sub))
	}
	if st.JobsTotal != 4 {
		t.Errorf("jobs_total = %d, want 4 (2 machines × 2 workloads)", st.JobsTotal)
	}
	final := waitDone(t, s, st.ID)
	if final.JobsDone != 4 || final.NewlySimulated != 4 {
		t.Errorf("done=%d simulated=%d, want 4/4", final.JobsDone, final.NewlySimulated)
	}

	got, ok := s.Results(st.ID)
	if !ok || len(got) != 4 {
		t.Fatalf("Results: ok=%v n=%d, want 4", ok, len(got))
	}
	jobs, err := s.buildJobs(sub)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Run(context.Background(), jobs, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Stats != want[i].Stats {
			t.Errorf("job %d (%s/%s): service stats differ from direct runner stats",
				i, got[i].Job.Config, got[i].Job.Workload)
		}
	}

	// The results endpoint serves the deterministic stats projection.
	req, _ = http.NewRequest("GET", srv.URL+"/api/v1/campaigns/"+st.ID+"/results?format=stats", nil)
	req.Header.Set("Authorization", "Bearer tok-alice")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d, want 200", resp.StatusCode)
	}
	var recs []statsRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("stats records = %d, want 4", len(recs))
	}
}

// TestDuplicateSubmissionReturnsExistingCampaign: identical content from the
// same tenant maps to one campaign — the second submit is a read, not work.
func TestDuplicateSubmissionReturnsExistingCampaign(t *testing.T) {
	s := newTestService(t, Options{})
	sub := testSubmission("")
	st1, created, err := s.Submit("tok-alice", sub)
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	st2, created, err := s.Submit("tok-alice", sub)
	if err != nil || created {
		t.Fatalf("duplicate submit: created=%v err=%v, want existing campaign", created, err)
	}
	if st1.ID != st2.ID {
		t.Errorf("duplicate got id %s, want %s", st2.ID, st1.ID)
	}
	u, _ := s.TenantUsage("tok-alice")
	if u.Campaigns != 1 {
		t.Errorf("campaigns = %d after duplicate submit, want 1", u.Campaigns)
	}
	// A different tag is a different campaign by design.
	st3, created, err := s.Submit("tok-alice", testSubmission("other"))
	if err != nil || !created || st3.ID == st1.ID {
		t.Errorf("tagged submit: id=%s created=%v err=%v, want a fresh campaign", st3.ID, created, err)
	}
	waitDone(t, s, st1.ID)
	waitDone(t, s, st3.ID)
}

// TestZeroQuotaTenantRejected: a tenant with no job quota is turned away at
// admission with 429, before any job enumeration work is wasted.
func TestZeroQuotaTenantRejected(t *testing.T) {
	s := newTestService(t, Options{Tenants: []TenantConfig{
		{Name: "broke", Token: "tok-broke", MaxQueuedJobs: 0},
	}})
	_, _, err := s.Submit("tok-broke", testSubmission(""))
	var adm *AdmissionError
	if !asAdmission(err, &adm) || adm.Code != 429 {
		t.Fatalf("zero-quota submit err = %v, want 429 AdmissionError", err)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body, _ := json.Marshal(testSubmission(""))
	req, _ := http.NewRequest("POST", srv.URL+"/api/v1/campaigns", strings.NewReader(string(body)))
	req.Header.Set("Authorization", "Bearer tok-broke")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("HTTP status = %d, want 429", resp.StatusCode)
	}
}

// gateObserver signals the first JobStarted and then holds every job until
// released, pinning a campaign in the running state for as long as a test
// needs it there.
type gateObserver struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (o *gateObserver) CampaignStarted(int) {}
func (o *gateObserver) JobStarted(int, runner.Job, *telemetry.Probe) {
	o.once.Do(func() { close(o.started) })
	<-o.release
}
func (o *gateObserver) JobFinished(int, runner.Result) {}

// TestInstructionBudgetExhaustedMidCampaign: once a tenant's budget is fully
// reserved by a running campaign, new admissions stop — but the running
// campaign is never interrupted and completes normally.
func TestInstructionBudgetExhaustedMidCampaign(t *testing.T) {
	gate := &gateObserver{started: make(chan struct{}), release: make(chan struct{})}
	sub := Submission{
		Machines:  []MachineEntry{{Config: "baseline", Spec: machine.Default()}},
		Workloads: []string{"qmm-srv-01"},
		Warmup:    5_000,
		Measure:   20_000,
	}
	cost := sub.Warmup + sub.Measure
	s := newTestService(t, Options{
		Tenants:  []TenantConfig{{Name: "cap", Token: "tok-cap", MaxQueuedJobs: 64, MaxInstructions: cost}},
		Observer: gate,
	})
	st, created, err := s.Submit("tok-cap", sub)
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	<-gate.started // the campaign is now running, its full budget reserved

	over := sub
	over.Tag = "second"
	_, _, err = s.Submit("tok-cap", over)
	var adm *AdmissionError
	if !asAdmission(err, &adm) || adm.Code != 429 || !strings.Contains(adm.Reason, "instruction budget") {
		t.Fatalf("mid-campaign submit err = %v, want 429 instruction-budget rejection", err)
	}

	close(gate.release)
	final := waitDone(t, s, st.ID)
	if final.NewlySimulated != 1 {
		t.Errorf("running campaign simulated %d jobs, want 1 despite the blocked admission", final.NewlySimulated)
	}
	u, _ := s.TenantUsage("tok-cap")
	if u.UsedInstructions == 0 || u.QueuedReservations != 0 {
		t.Errorf("usage after settle: used=%d reserved=%d, want used>0 reserved=0", u.UsedInstructions, u.QueuedReservations)
	}
	// The budget stays spent: later submissions remain rejected.
	over.Tag = "third"
	if _, _, err := s.Submit("tok-cap", over); !asAdmission(err, &adm) || adm.Code != 429 {
		t.Errorf("post-settle submit err = %v, want 429", err)
	}
}

// TestWarmStoreReplaySimulatesNothing: resubmitting the same spec under a new
// tag against a warm result store serves every job from the store — zero new
// simulation, zero instructions charged.
func TestWarmStoreReplaySimulatesNothing(t *testing.T) {
	rs, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Options{Store: rs})
	cold, _, err := s.Submit("tok-alice", testSubmission("cold"))
	if err != nil {
		t.Fatal(err)
	}
	coldSt := waitDone(t, s, cold.ID)
	if coldSt.NewlySimulated != 4 {
		t.Fatalf("cold run simulated %d jobs, want 4", coldSt.NewlySimulated)
	}

	warm, created, err := s.Submit("tok-alice", testSubmission("warm"))
	if err != nil || !created || warm.ID == cold.ID {
		t.Fatalf("warm submit: id=%s created=%v err=%v, want a distinct campaign", warm.ID, created, err)
	}
	warmSt := waitDone(t, s, warm.ID)
	if warmSt.NewlySimulated != 0 || warmSt.ReusedJobs != 4 {
		t.Errorf("warm run: simulated=%d reused=%d, want 0/4", warmSt.NewlySimulated, warmSt.ReusedJobs)
	}
	if warmSt.SimInstructions != 0 {
		t.Errorf("warm run charged %d instructions, want 0", warmSt.SimInstructions)
	}
	// Both campaigns merged identical stats.
	coldRes, _ := s.Results(cold.ID)
	warmRes, _ := s.Results(warm.ID)
	for i := range coldRes {
		if coldRes[i].Stats != warmRes[i].Stats {
			t.Errorf("job %d: warm-store stats differ from the cold run", i)
		}
	}
}

// TestDrainClosesAdmission: draining answers new submissions with 503 while
// reads keep working, and an idle service drains immediately.
func TestDrainClosesAdmission(t *testing.T) {
	s := newTestService(t, Options{})
	st, _, err := s.Submit("tok-alice", testSubmission(""))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var adm *AdmissionError
	if _, _, err := s.Submit("tok-alice", testSubmission("late")); !asAdmission(err, &adm) || adm.Code != 503 {
		t.Errorf("post-drain submit err = %v, want 503", err)
	}
	if _, ok := s.Results(st.ID); !ok {
		t.Error("completed results unavailable after drain")
	}
}

// TestHTTPAuthAndTenantIsolation: no token and bad tokens get 401; one
// tenant's campaign ids do not resolve for another tenant.
func TestHTTPAuthAndTenantIsolation(t *testing.T) {
	s := newTestService(t, Options{Tenants: []TenantConfig{
		{Name: "alice", Token: "tok-alice", MaxQueuedJobs: 64},
		{Name: "bob", Token: "tok-bob", MaxQueuedJobs: 64},
	}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated list status = %d, want 401", resp.StatusCode)
	}

	st, _, err := s.Submit("tok-alice", testSubmission(""))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	req, _ := http.NewRequest("GET", srv.URL+"/api/v1/campaigns/"+st.ID, nil)
	req.Header.Set("Authorization", "Bearer tok-bob")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cross-tenant status fetch = %d, want 404", resp.StatusCode)
	}
}

// TestSubmissionValidation rejects malformed submissions with 400-class
// admission errors before anything queues.
func TestSubmissionValidation(t *testing.T) {
	s := newTestService(t, Options{})
	cases := []struct {
		name string
		mut  func(*Submission)
	}{
		{"no machines", func(sub *Submission) { sub.Machines = nil }},
		{"no workloads", func(sub *Submission) { sub.Workloads = nil }},
		{"zero measure", func(sub *Submission) { sub.Measure = 0 }},
		{"unknown workload", func(sub *Submission) { sub.Workloads = []string{"no-such-load"} }},
		{"oversized mix", func(sub *Submission) {
			sub.Workloads = []string{strings.Repeat("qmm-srv-01+", 17) + "qmm-srv-02"}
		}},
		{"l2 sets not a power of two", func(sub *Submission) { sub.Machines[1].Spec.Cache.L2Sets = 1000 }},
		{"llc without ways", func(sub *Submission) { sub.Machines[0].Spec.Cache.LLCWays = 0 }},
	}
	for _, tc := range cases {
		sub := testSubmission("")
		tc.mut(&sub)
		_, _, err := s.Submit("tok-alice", sub)
		var adm *AdmissionError
		if !asAdmission(err, &adm) || adm.Code != 400 {
			t.Errorf("%s: err = %v, want 400 AdmissionError", tc.name, err)
		}
	}
	if u, ok := s.TenantUsage("tok-alice"); !ok || u.Campaigns != 0 || u.QueuedJobs != 0 || u.QueuedReservations != 0 {
		t.Errorf("rejected submissions were admitted or charged: %+v", u)
	}
}

// TestGaugesCoverTenants: every tenant appears in the labelled gauge set.
func TestGaugesCoverTenants(t *testing.T) {
	s := newTestService(t, Options{Tenants: []TenantConfig{
		{Name: "alice", Token: "tok-alice", MaxQueuedJobs: 64},
		{Name: "bob", Token: "tok-bob", MaxQueuedJobs: 8, MaxInstructions: 1 << 30},
	}})
	tenants := make(map[string]bool)
	quota := false
	for _, g := range s.Gauges() {
		if tn := g.Labels["tenant"]; tn != "" {
			tenants[tn] = true
		}
		if g.Name == "morrigan_service_tenant_instructions_quota" {
			quota = true
		}
	}
	if !tenants["alice"] || !tenants["bob"] {
		t.Errorf("gauge tenants = %v, want alice and bob", tenants)
	}
	if !quota {
		t.Error("bounded tenant missing the instructions_quota gauge")
	}
}

// asAdmission is errors.As without the import noise in call sites.
func asAdmission(err error, target **AdmissionError) bool {
	if err == nil {
		return false
	}
	if adm, ok := err.(*AdmissionError); ok {
		*target = adm
		return true
	}
	return false
}

// TestCampaignIDStability pins the id derivation: ids are content-derived,
// stable across processes, and sensitive to every identity-bearing field.
func TestCampaignIDStability(t *testing.T) {
	a := CampaignID("alice", testSubmission(""))
	if a != CampaignID("alice", testSubmission("")) {
		t.Error("identical submissions derived different ids")
	}
	if !strings.HasPrefix(a, "c-") || len(a) != 18 {
		t.Errorf("id %q, want c-<16 hex>", a)
	}
	if a == CampaignID("bob", testSubmission("")) {
		t.Error("tenant name does not discriminate campaign ids")
	}
	mut := testSubmission("")
	mut.Measure++
	if a == CampaignID("alice", mut) {
		t.Error("measure does not discriminate campaign ids")
	}
}

// TestCorpusBackedCampaignMatchesGenerator: a service fed from a corpus
// store materialises each workload to the submission's warmup+measure — a
// workload missing from the store and one present only as a short container
// alike — and yields the generator-fed run's Stats job for job.
func TestCorpusBackedCampaignMatchesGenerator(t *testing.T) {
	cs, err := tracestore.Open(tracestore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	sub := testSubmission("corpus")
	short, _ := workloads.ByName(sub.Workloads[0])
	if _, err := cs.Materialize(short, 1_000); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Options{Corpus: cs})
	st, _, err := s.Submit("tok-alice", sub)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, st.ID)
	got, _ := s.Results(st.ID)

	jobs, err := s.buildJobs(sub)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runner.Run(context.Background(), jobs, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Stats != want[i].Stats {
			t.Errorf("job %d (%s/%s): corpus-fed stats (%d instructions) differ from the generator run's (%d)",
				i, got[i].Job.Config, got[i].Job.Workload, got[i].Stats.Instructions, want[i].Stats.Instructions)
		}
	}
}
