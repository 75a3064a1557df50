package bench

import (
	"strings"
	"testing"
)

// TestRestoreBenchSmoke runs the restore scenario with one enclave and
// three clients against a two-session cap, and checks the JSON-bound
// result has sane latency and counter fields.
func TestRestoreBenchSmoke(t *testing.T) {
	env := sharedEnv(t)
	res, err := restoreBench(env, restoreCfg{enclaves: 1, clientsPer: 3, maxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restores != 3 {
		t.Fatalf("restores = %d, want 3", res.Restores)
	}
	if res.ServerAttest.Count < 3 || res.ServerRequest.Count < 3 {
		t.Fatalf("latency histograms underpopulated: %+v", res)
	}
	if res.ServerAttest.P50Us <= 0 || res.ServerRequest.P99Us < res.ServerRequest.P50Us {
		t.Fatalf("implausible percentiles: %+v", res.ServerAttest)
	}
	if res.Counters["server.attest_ok"] < 3 || res.Counters["client.dials"] < 3 {
		t.Fatalf("counters missing: %v", res.Counters)
	}
	if len(res.PerEnclave) != 1 || res.PerEnclave[0].Restores != 3 {
		t.Fatalf("per-enclave rows: %+v", res.PerEnclave)
	}
	t.Logf("\n%s", res)
}

// TestLookupScenario: every registered scenario resolves to itself with a
// default artifact path, and an unknown name is an error that lists them.
func TestLookupScenario(t *testing.T) {
	names := ScenarioNames()
	if len(names) != 7 {
		t.Fatalf("registered scenarios: %v", names)
	}
	for _, name := range names {
		s, err := LookupScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name || !strings.HasPrefix(s.Out, "BENCH_") {
			t.Errorf("%s: name %q, out %q", name, s.Name, s.Out)
		}
	}
	if s, _ := LookupScenario("load"); s.Out != "BENCH_load.json" {
		t.Errorf("load writes %s, want the committed BENCH_load.json", s.Out)
	}
	_, err := LookupScenario("nosuch")
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}
