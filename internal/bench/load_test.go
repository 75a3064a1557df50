package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestLoadBenchSmoke runs a miniature open-loop load test — enough
// arrivals to exercise the arrival scheduler, the protocol-level clients,
// and both wire protocols — and checks the two headline claims: the
// pipelined protocol completes a restore in one network flight, the
// legacy protocol in three.
func TestLoadBenchSmoke(t *testing.T) {
	env := sharedEnv(t)
	res, err := loadBench(env, loadCfg{
		rate:        200,
		restores:    30,
		maxSessions: loadFull.maxSessions,
		timeout:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []*LoadRunResult{res.Pipelined, res.Legacy} {
		if run.Completed != run.Offered {
			t.Errorf("%s: %d/%d restores completed (%d errors)",
				run.Protocol, run.Completed, run.Offered, run.Errors)
		}
		if run.Latency.Count == 0 {
			t.Errorf("%s: no latency samples", run.Protocol)
		}
		if len(run.ThroughputRPS) == 0 {
			t.Errorf("%s: empty throughput curve", run.Protocol)
		}
	}
	// The round-trip collapse is the tentpole claim: exactly one wire
	// flight per pipelined restore, exactly three per legacy restore
	// (attest, REQUEST_META, REQUEST_DATA). Equality, not a bound —
	// retries would push these up and they are disabled here.
	if got := res.Pipelined.FlightsPerRestore; got != 1 {
		t.Errorf("pipelined flights/restore: got %v, want exactly 1", got)
	}
	if got := res.Legacy.FlightsPerRestore; got != 3 {
		t.Errorf("legacy flights/restore: got %v, want exactly 3", got)
	}
	if res.Pipelined.ClientCounters["client.bundle_hits"] == 0 {
		t.Error("pipelined run served no requests from the bundle cache")
	}
}

// TestLoadBaselineSchema keeps the committed three-flight baseline
// comparable: BENCH_load.json must decode into the load scenario's result
// type with no unknown field, and re-encoding must reproduce the file's
// top-level and per-run key sets exactly (no field dropped or renamed).
func TestLoadBaselineSchema(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_load.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var res LoadBenchResult
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("BENCH_load.json does not decode into LoadBenchResult: %v", err)
	}
	again, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(doc []byte) map[string][]string {
		var top map[string]json.RawMessage
		if err := json.Unmarshal(doc, &top); err != nil {
			t.Fatal(err)
		}
		sets := map[string][]string{}
		for k, v := range top {
			sets[""] = append(sets[""], k)
			if k == "pipelined" || k == "legacy" {
				var run map[string]json.RawMessage
				if err := json.Unmarshal(v, &run); err != nil {
					t.Fatal(err)
				}
				for rk := range run {
					sets[k] = append(sets[k], rk)
				}
			}
		}
		for _, s := range sets {
			sort.Strings(s)
		}
		return sets
	}
	want, got := keys(raw), keys(again)
	if len(want["pipelined"]) == 0 || len(want["legacy"]) == 0 {
		t.Fatalf("baseline lacks a run: %v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("key sets differ:\n got  %v\n want %v", got, want)
	}
}
