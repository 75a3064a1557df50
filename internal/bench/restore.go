package bench

import (
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// restoreCfg sizes the restore scenario: one authentication server holding
// enclaves distinct sanitized enclaves in its secret store, restored
// concurrently over TCP by clientsPer user machines per enclave.
type restoreCfg struct {
	enclaves    int // distinct programs, at most len(All())
	clientsPer  int // concurrent clients per enclave
	maxSessions int // server concurrent-session cap
}

var restoreFull = restoreCfg{enclaves: 4, clientsPer: 4, maxSessions: 16}

// RestoreEnclaveResult is one enclave's slice of the restore scenario.
type RestoreEnclaveResult struct {
	Program    string `json:"program"`
	MrEnclave  string `json:"mrenclave"` // short hex prefix
	Restores   int    `json:"restores"`
	Attests    uint64 `json:"attests"`
	MetaServed uint64 `json:"meta_served"`
	DataServed uint64 `json:"data_served"`
}

// RestoreResult is the JSON document the restore scenario writes to
// BENCH_restore.json.
type RestoreResult struct {
	Enclaves    int     `json:"enclaves"`
	ClientsPer  int     `json:"clients_per_enclave"`
	MaxSessions int     `json:"max_sessions"`
	WallMs      float64 `json:"wall_ms"`
	Restores    int     `json:"restores"`

	PerEnclave []RestoreEnclaveResult `json:"per_enclave"`

	// Transport latencies per attestation and per decrypted channel
	// request, from both sides, and the raw counters backing them.
	ServerAttest  LatencySummary    `json:"server_attest_latency"`
	ServerRequest LatencySummary    `json:"server_request_latency"`
	ClientAttest  LatencySummary    `json:"client_attest_latency"`
	ClientRequest LatencySummary    `json:"client_request_latency"`
	Counters      map[string]uint64 `json:"counters"`
}

func (r *RestoreResult) String() string {
	s := fmt.Sprintf(
		"restore bench: %d enclaves x %d clients (cap %d): %d restores in %.1f ms\n"+
			"  attest  p50 %.0fµs  p90 %.0fµs  p99 %.0fµs (server-side, n=%d)\n"+
			"  request p50 %.0fµs  p90 %.0fµs  p99 %.0fµs (server-side, n=%d)",
		r.Enclaves, r.ClientsPer, r.MaxSessions, r.Restores, r.WallMs,
		r.ServerAttest.P50Us, r.ServerAttest.P90Us, r.ServerAttest.P99Us, r.ServerAttest.Count,
		r.ServerRequest.P50Us, r.ServerRequest.P90Us, r.ServerRequest.P99Us, r.ServerRequest.Count)
	for _, e := range r.PerEnclave {
		s += fmt.Sprintf("\n  %-10s mr=%s  restores=%d attests=%d meta=%d data=%d",
			e.Program, e.MrEnclave, e.Restores, e.Attests, e.MetaServed, e.DataServed)
	}
	return s
}

// restoreBench builds cfg.enclaves distinct sanitized enclaves, serves
// them all from one server, and restores each concurrently from
// cfg.clientsPer independent user machines. Afterwards it cross-checks the
// store's per-enclave release counters against the restores performed:
// every enclave must have been served its own secrets, as often as its
// clients asked.
func restoreBench(env *Env, cfg restoreCfg) (*RestoreResult, error) {
	f, err := newFleet(env, elide.SanitizeOptions{}, All()[:cfg.enclaves]...)
	if err != nil {
		return nil, err
	}
	ms, err := f.add(1, nil, elide.WithMaxSessions(cfg.maxSessions))
	if err != nil {
		_ = f.close()
		return nil, err
	}
	srv := ms[0]
	clientMetrics := obs.NewRegistry()

	start := time.Now()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		restores = make([]int, len(f.prots))
		firstErr error
	)
	for di := range f.prots {
		for c := 0; c < cfg.clientsPer; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := restoreOverTCP(env, f.prots[di], srv.addr, clientMetrics)
				mu.Lock()
				defer mu.Unlock()
				if err == nil {
					restores[di]++
				} else if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", f.progs[di].Name, err)
				}
			}()
		}
	}
	wg.Wait()
	wall := time.Since(start)
	if err := f.close(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}

	res := &RestoreResult{
		Enclaves:    cfg.enclaves,
		ClientsPer:  cfg.clientsPer,
		MaxSessions: cfg.maxSessions,
		WallMs:      float64(wall.Nanoseconds()) / 1e6,
	}
	for di, prot := range f.prots {
		name := f.progs[di].Name
		entry, ok := f.store.Lookup(prot.Measurement)
		if !ok {
			return nil, fmt.Errorf("bench: %s vanished from the store", name)
		}
		st := entry.Stats()
		// Release-counter cross-check: each restore needs at least one
		// metadata and one data release of THIS enclave's entry (retries
		// after a transport hiccup can add more) — a shortfall would mean
		// the restore was fed from some other enclave's entry.
		if st.MetaServed < uint64(restores[di]) || st.DataServed < uint64(restores[di]) {
			return nil, fmt.Errorf("bench: %s served meta=%d data=%d for %d restores",
				name, st.MetaServed, st.DataServed, restores[di])
		}
		res.PerEnclave = append(res.PerEnclave, RestoreEnclaveResult{
			Program:    name,
			MrEnclave:  hex.EncodeToString(prot.Measurement[:4]),
			Restores:   restores[di],
			Attests:    st.Attests,
			MetaServed: st.MetaServed,
			DataServed: st.DataServed,
		})
		res.Restores += restores[di]
	}
	ssnap := srv.metrics.Snapshot()
	csnap := clientMetrics.Snapshot()
	res.ServerAttest = summarize(ssnap.Histograms["server.attest_ns"])
	res.ServerRequest = summarize(ssnap.Histograms["server.request_ns"])
	res.ClientAttest = summarize(csnap.Histograms["client.attest_ns"])
	res.ClientRequest = summarize(csnap.Histograms["client.request_ns"])
	res.Counters = f.counters(clientMetrics)
	return res, nil
}

// restoreOverTCP is one user machine: its own platform, a TCP client to
// addr, and a full launch and elide_restore of prot.
func restoreOverTCP(env *Env, prot *elide.Protected, addr string, metrics *obs.Registry) error {
	platform, err := sgx.NewPlatform(sgx.Config{}, env.CA)
	if err != nil {
		return err
	}
	client := elide.NewTCPClient(addr,
		elide.WithClientMetrics(metrics),
		// Under heavy oversubscription (many clients, few cores) generous
		// deadlines keep the measurement about the transport, not the
		// scheduler.
		elide.WithDialTimeout(30*time.Second),
		elide.WithRequestTimeout(time.Minute),
	)
	defer func() { _ = client.Close() }()
	encl, rt, err := prot.Launch(sdk.NewHost(platform), client, prot.LocalFiles())
	if err != nil {
		return err
	}
	defer encl.Destroy()
	code, err := encl.ECall("elide_restore", 0)
	if err != nil {
		return err
	}
	if code != elide.RestoreOKServer {
		return fmt.Errorf("restore code %d (runtime: %v)", code, rt.LastErr())
	}
	return nil
}
