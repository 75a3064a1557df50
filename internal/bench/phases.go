package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// phasesIters is the phases scenario's traced launches of Sha1 per data
// mode, every launch on a fresh simulated machine (the paper measures cold
// launches).
const phasesIters = 10

// PhaseModeResult is one data mode's breakdown: a latency summary per
// pipeline phase (attest, request_meta, request_data, decrypt, restore,
// seal) plus the end-to-end elide_restore ecall. Phases is the client
// hop's view (where the user-machine runtime spends the restore);
// ServerPhases is the same launches seen from the authentication server's
// session spans, so one run attributes every phase to its hop.
type PhaseModeResult struct {
	Mode         string                    `json:"mode"` // "remote-data" or "local-data"
	Phases       map[string]LatencySummary `json:"phases"`
	ServerPhases map[string]LatencySummary `json:"server_phases,omitempty"`
	Total        LatencySummary            `json:"total_restore"`
}

// PhasesBenchResult is the JSON document the phases scenario writes to
// BENCH_phases.json: where the restore time of Table 2 actually
// goes — attestation vs data fetch vs decrypt vs the memcpy restore.
type PhasesBenchResult struct {
	Program string            `json:"program"`
	Iters   int               `json:"iters"`
	Modes   []PhaseModeResult `json:"modes"`
}

func (r *PhasesBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "restore phase breakdown: %s, %d iterations per mode\n", r.Program, r.Iters)
	for _, m := range r.Modes {
		fmt.Fprintf(&b, "  %s (total p50 %.0fµs):\n", m.Mode, m.Total.P50Us)
		names := make([]string, 0, len(m.Phases))
		for name := range m.Phases {
			names = append(names, name)
		}
		// Protocol order first, anything else alphabetically after.
		rank := make(map[string]int, len(elide.RestorePhases))
		for i, name := range elide.RestorePhases {
			rank[name] = i + 1
		}
		sort.Slice(names, func(i, j int) bool {
			ri, rj := rank[names[i]], rank[names[j]]
			if ri == 0 && rj == 0 {
				return names[i] < names[j]
			}
			if ri == 0 || rj == 0 {
				return rj == 0
			}
			return ri < rj
		})
		for _, name := range names {
			s := m.Phases[name]
			fmt.Fprintf(&b, "    %-14s p50 %8.0fµs  p90 %8.0fµs  mean %8.0fµs (n=%d)\n",
				name, s.P50Us, s.P90Us, s.MeanUs, s.Count)
		}
		if len(m.ServerPhases) > 0 {
			fmt.Fprintf(&b, "    server hop:\n")
			snames := make([]string, 0, len(m.ServerPhases))
			for name := range m.ServerPhases {
				snames = append(snames, name)
			}
			sort.Strings(snames)
			for _, name := range snames {
				s := m.ServerPhases[name]
				fmt.Fprintf(&b, "      %-12s p50 %8.0fµs  p90 %8.0fµs  mean %8.0fµs (n=%d)\n",
					name, s.P50Us, s.P90Us, s.MeanUs, s.Count)
			}
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// tracedLaunch runs one full traced restore of prot on a fresh machine and
// returns the merged cross-process trace: the client hop's spans (tagged
// svc=client) and the authentication server's session spans (svc=server),
// joined into one tree by the trace context the attestation carries. Flags
// always include seal-after so the seal phase is exercised. When audit is
// non-nil the server and the runtime emit their security events into it.
func tracedLaunch(env *Env, prot *elide.Protected, audit *obs.AuditLog) ([]obs.SpanRecord, error) {
	platform, err := sgx.NewPlatform(sgx.Config{}, env.CA)
	if err != nil {
		return nil, err
	}
	host := sdk.NewHost(platform)
	tracer := obs.NewTracer(0)
	tracer.SetService("client")
	host.Tracer = tracer
	serverTracer := obs.NewTracer(0)
	serverTracer.SetService("server")
	srvOpts := []elide.ServerOption{elide.WithServerTracer(serverTracer)}
	if audit != nil {
		srvOpts = append(srvOpts, elide.WithServerAudit(audit))
	}
	srv, err := prot.NewServerFor(env.CA, srvOpts...)
	if err != nil {
		return nil, err
	}
	client := &elide.DirectClient{Session: srv.NewSession()}
	encl, rt, err := prot.Launch(host, client, prot.LocalFiles())
	if err != nil {
		return nil, err
	}
	defer encl.Destroy()
	rt.Audit = audit
	code, err := elide.Restore(encl, elide.FlagSealAfter)
	_ = client.Close() // completes the server's session span
	if err != nil {
		return nil, fmt.Errorf("restore: %w (runtime: %v)", err, rt.LastErr())
	}
	if code != elide.RestoreOKServer {
		return nil, fmt.Errorf("restore code %d (runtime: %v)", code, rt.LastErr())
	}
	if audit != nil {
		audit.Emit(obs.AuditEvent{Type: obs.AuditRestoreOK, TraceID: traceIDOf(tracer), Code: int64(code), Detail: "server"})
	}
	return append(tracer.Completed(), serverTracer.Completed()...), nil
}

// traceIDOf returns the trace of the launch's elide_restore root span.
func traceIDOf(tr *obs.Tracer) uint64 {
	for _, r := range tr.Completed() {
		if r.Name == "elide_restore" {
			return r.TraceID
		}
	}
	return 0
}

// phasesBench measures the per-phase restore latency breakdown of Sha1 in
// both data modes. Each iteration is an independent traced launch;
// per-phase durations come from the launch's span records.
func phasesBench(env *Env, iters int) (*PhasesBenchResult, error) {
	p := Sha1
	res := &PhasesBenchResult{Program: p.Name, Iters: iters}
	for _, mode := range []struct {
		name string
		san  elide.SanitizeOptions
	}{
		{"remote-data", elide.SanitizeOptions{}},
		{"local-data", elide.SanitizeOptions{EncryptLocal: true}},
	} {
		prot, err := BuildProtected(env, p, mode.san)
		if err != nil {
			return nil, err
		}
		phaseHists := make(map[string]*obs.Histogram)
		serverHists := make(map[string]*obs.Histogram)
		total := obs.NewHistogram()
		observe := func(hists map[string]*obs.Histogram, name string, d time.Duration) {
			h := hists[name]
			if h == nil {
				h = obs.NewHistogram()
				hists[name] = h
			}
			h.Observe(d)
		}
		for i := 0; i < iters; i++ {
			recs, err := tracedLaunch(env, prot, nil)
			if err != nil {
				return nil, fmt.Errorf("%s iter %d: %w", mode.name, i, err)
			}
			client, server := splitBySvc(recs)
			for name, d := range obs.DurationsByName(client) {
				switch name {
				case "elide_restore":
					total.Observe(d)
				case "attest", "request_meta", "request_data", "decrypt", "restore", "seal":
					observe(phaseHists, name, d)
				}
			}
			for name, d := range obs.DurationsByName(server) {
				observe(serverHists, name, d)
			}
		}
		mr := PhaseModeResult{
			Mode:         mode.name,
			Phases:       make(map[string]LatencySummary, len(phaseHists)),
			ServerPhases: make(map[string]LatencySummary, len(serverHists)),
			Total:        summarize(total.Snapshot()),
		}
		for name, h := range phaseHists {
			mr.Phases[name] = summarize(h.Snapshot())
		}
		for name, h := range serverHists {
			mr.ServerPhases[name] = summarize(h.Snapshot())
		}
		res.Modes = append(res.Modes, mr)
	}
	return res, nil
}

// splitBySvc partitions merged trace records into the client hop's spans
// and the server hop's spans (untagged records count as client: they come
// from the runtime's own tracer).
func splitBySvc(recs []obs.SpanRecord) (client, server []obs.SpanRecord) {
	for _, r := range recs {
		if r.Svc == "server" {
			server = append(server, r)
		} else {
			client = append(client, r)
		}
	}
	return client, server
}

// ObsDemoResult is one fully observed restore: the merged cross-process
// span records, the rendered tree, and the audit events the run produced —
// the sample artifacts CI uploads so a schema change is visible in review.
type ObsDemoResult struct {
	Tree  string
	Spans []obs.SpanRecord
	Audit *obs.AuditLog
}

// obsDemo runs a single traced, audited local-data restore and returns
// every observability artifact it produced.
func obsDemo(env *Env) (*ObsDemoResult, error) {
	prot, err := BuildProtected(env, Sha1, elide.SanitizeOptions{EncryptLocal: true})
	if err != nil {
		return nil, err
	}
	audit := obs.NewAuditLog(0)
	recs, err := tracedLaunch(env, prot, audit)
	if err != nil {
		return nil, err
	}
	return &ObsDemoResult{Tree: obs.RenderTree(recs), Spans: recs, Audit: audit}, nil
}

func (r *ObsDemoResult) String() string { return r.Tree }

// writeArtifacts writes the merged trace as JSONL to out and the audit
// stream to BENCH_audit.jsonl beside it, then checks the audit file
// against the same schema gate CI applies to it.
func (r *ObsDemoResult) writeArtifacts(out string) error {
	var trace bytes.Buffer
	enc := json.NewEncoder(&trace)
	for _, rec := range r.Spans {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := os.WriteFile(out, trace.Bytes(), 0o644); err != nil {
		return err
	}
	var audit bytes.Buffer
	if err := r.Audit.WriteJSONL(&audit); err != nil {
		return err
	}
	auditPath := filepath.Join(filepath.Dir(out), "BENCH_audit.jsonl")
	if err := os.WriteFile(auditPath, audit.Bytes(), 0o644); err != nil {
		return err
	}
	if _, err := obs.ValidateAuditJSONL(&audit); err != nil {
		return fmt.Errorf("%s failed schema validation: %w", auditPath, err)
	}
	return nil
}
