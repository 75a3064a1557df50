package bench

import "testing"

// TestResumeBenchSmoke runs a scaled-down kill-then-resume-elsewhere
// scenario and asserts the headline numbers the replication layer exists
// for: with replication, every session resumes on the peer with ZERO
// attestation flights; without it, every one pays a full re-attestation.
func TestResumeBenchSmoke(t *testing.T) {
	env := sharedEnv(t)
	cfg := resumeCfg{sessions: 6, timeout: resumeFull.timeout}
	if testing.Short() {
		cfg.sessions = 3
	}
	res, err := resumeBench(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())

	if res.Replicated.Resumed != cfg.sessions {
		t.Fatalf("replicated: %d/%d sessions resumed on the peer", res.Replicated.Resumed, cfg.sessions)
	}
	if res.Replicated.ExtraAttestFlights != 0 {
		t.Fatalf("replicated: peer ran %d full attestation flights, want 0", res.Replicated.ExtraAttestFlights)
	}
	if res.Baseline.ReAttested != cfg.sessions {
		t.Fatalf("baseline: %d/%d sessions silently re-attested", res.Baseline.ReAttested, cfg.sessions)
	}
	if res.Baseline.ExtraAttestPerResume != 1 {
		t.Fatalf("baseline: %.2f extra attest flights per resume, want 1", res.Baseline.ExtraAttestPerResume)
	}
}
