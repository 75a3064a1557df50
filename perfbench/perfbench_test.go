package main

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sgxelide/internal/bench"
	"sgxelide/internal/elf"
	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
)

// --- seeded generation ---

func TestSeedReplaysOperationSequence(t *testing.T) {
	gen := func(seed uint64) (cold [][]int, app [][]appStep, serve []serveOp) {
		co := newColdOrder(seed, 14)
		ao := newAppOrder(seed, 5)
		sp := newServePlan(seed)
		for i := 0; i < 5; i++ {
			cold = append(cold, co.cycle())
			app = append(app, ao.round())
		}
		for i := 0; i < 3000; i++ {
			_, op := sp.next()
			serve = append(serve, op)
		}
		return
	}
	c1, a1, s1 := gen(7)
	c2, a2, s2 := gen(7)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("the same seed produced different operation sequences")
	}
	c3, a3, s3 := gen(8)
	if reflect.DeepEqual(c1, c3) || reflect.DeepEqual(a1, a3) || reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds produced the same operation sequence")
	}
}

func TestServePlanMixAndResumeTargets(t *testing.T) {
	sp := newServePlan(3)
	var kinds [3]int
	for i := 0; i < 20000; i++ {
		_, op := sp.next()
		kinds[op.kind]++
		if op.kind != opResume {
			continue
		}
		tgt := sp.ops[op.target]
		if tgt.kind != opFresh || op.target > i-resumeLag || op.target < i-resumeWindow {
			t.Fatalf("arrival %d replays %d (%v), outside the window of fresh sessions", i, op.target, tgt.kind)
		}
		if op.replica == tgt.replica {
			t.Fatalf("arrival %d replays a session on the replica that created it", i)
		}
	}
	for k, want := range []float64{shareFresh, shareResume, 1 - shareFresh - shareResume} {
		if got := float64(kinds[k]) / 20000; got < want-0.02 || got > want+0.02 {
			t.Errorf("%v share %.3f, want %.2f", opKind(k), got, want)
		}
	}
}

// --- the metric catalogue ---

type benchSpec struct {
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, e2eNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, e2eNames)
	}
	var layers []string
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
		if m.Unit != layerUnit(m.Name) {
			t.Errorf("%s: BENCHMARK.json unit %q, benchmark reports %q", m.Name, m.Unit, layerUnit(m.Name))
		}
	}
	if !reflect.DeepEqual(layers, perLayerNames()) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's catalogue:\n%v\n%v", layers, perLayerNames())
	}
}

// --- self time ---

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := span{ID: 1, Name: "p", Start: 0, End: 100}
	spans := []span{parent,
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 40},  // overlaps the first
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "g", Start: 12, End: 14},  // grandchild: not direct
	}
	if got := indexSpans(spans).selfTime(parent); got != 60 {
		t.Fatalf("self time %d, want 60 (100 - [10,40) - [90,100))", got)
	}
}

func TestRecorderOffIsInert(t *testing.T) {
	var r *recorder
	sp := r.root("x")
	sp.child("y").end()
	sp.end()
	if r.all() != nil {
		t.Fatal("a nil recorder kept spans")
	}
	r = newRecorder()
	root := r.root("x")
	root.child("y").end()
	root.end()
	got := r.all()
	if len(got) != 2 || got[0].Parent != got[1].ID || got[0].Trace != got[1].Trace {
		t.Fatalf("child span not linked to its root: %+v", got)
	}
}

// --- correctness gates fire on injected corruption ---

func testMachine(t *testing.T) (*machine, elide.Whitelist) {
	t.Helper()
	m, err := newMachine()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := elide.GenerateWhitelist()
	if err != nil {
		t.Fatal(err)
	}
	return m, wl
}

var (
	keyOnce sync.Once
	key     *rsa.PrivateKey
	keyErr  error
)

// signingKey is one developer key shared by the tests.
func signingKey(t *testing.T) *rsa.PrivateKey {
	t.Helper()
	keyOnce.Do(func() { key, keyErr = rsa.GenerateKey(rand.Reader, 2048) })
	if keyErr != nil {
		t.Fatal(keyErr)
	}
	return key
}

func buildTest(t *testing.T, m *machine, wl elide.Whitelist, p *bench.Program, mode string) *deployment {
	t.Helper()
	d, err := buildDeployment(m, signingKey(t), wl, p, mode)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// startWith serves d's secrets registered under mr with the given data.
func startWith(t *testing.T, m *machine, d *deployment, mr [32]byte, data []byte) *serving {
	t.Helper()
	st := elide.NewSecretStore()
	if _, err := st.Register(mr, d.prot.Meta, data, d.name()); err != nil {
		t.Fatal(err)
	}
	srv, err := elide.NewMultiServer(m.ca.PublicKey(), st)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serve(srv, l)
	t.Cleanup(func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	})
	return s
}

func TestColdRestoreGates(t *testing.T) {
	m, wl := testMachine(t)
	d := buildTest(t, m, wl, bench.Crackme, modeRemote)
	secret := serverSecret(d.prot)
	clients := obs.NewRegistry()

	good := startWith(t, m, d, d.prot.Measurement, secret)
	encl, _, err := firstLaunch(m, d, good.addr, clients, active{})
	if err != nil {
		t.Fatalf("clean restore failed: %v", err)
	}
	encl.Destroy()

	// The gate compares against the plain image: a flipped expected byte
	// must fail it.
	bad := *d
	bad.text = append([]byte(nil), d.text...)
	bad.text[len(bad.text)/2] ^= 0x40
	if encl, _, err := firstLaunch(m, &bad, good.addr, clients, active{}); err == nil {
		encl.Destroy()
		t.Fatal("restored text gate passed against a corrupted expected text")
	}

	// A server releasing a flipped secret byte must not yield a passing
	// restore.
	flipped := append([]byte(nil), secret...)
	flipped[len(flipped)/3] ^= 0x01
	corrupt := startWith(t, m, d, d.prot.Measurement, flipped)
	if encl, _, err := firstLaunch(m, d, corrupt.addr, clients, active{}); err == nil {
		encl.Destroy()
		t.Fatal("restore passed with a flipped secret byte")
	}

	// A server expecting another measurement refuses the attestation.
	wrong := d.prot.Measurement
	wrong[0] ^= 0xff
	refusing := startWith(t, m, d, wrong, secret)
	if encl, _, err := firstLaunch(m, d, refusing.addr, clients, active{}); err == nil {
		encl.Destroy()
		t.Fatal("restore passed against a server expecting a different measurement")
	}
}

func TestAppSuiteGate(t *testing.T) {
	m, wl := testMachine(t)
	d := buildTest(t, m, wl, bench.Crackme, modeRemote)
	srv := startWith(t, m, d, d.prot.Measurement, serverSecret(d.prot))
	encl, _, err := firstLaunch(m, d, srv.addr, obs.NewRegistry(), active{})
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	if _, err := runSuite(m.host, encl, bench.Crackme, active{}); err != nil {
		t.Fatalf("suite failed on a clean restore: %v", err)
	}

	// Put the sanitized (elided) bytes back over the restored text: the
	// suite must now fail against its Go reference.
	sf, err := elf.Read(d.prot.SanitizedELF)
	if err != nil {
		t.Fatal(err)
	}
	sanitized := sf.SectionData(sf.Section(".text"))
	if bytes.Equal(sanitized, d.text) {
		t.Fatal("sanitizer elided nothing")
	}
	if f := encl.Space.EnclaveWriteBytes(d.textAddr, sanitized); f != nil {
		t.Fatal(f)
	}
	if _, err := runSuite(m.host, encl, bench.Crackme, active{}); err == nil {
		t.Fatal("suite passed on elided code")
	}
}

func TestServeGates(t *testing.T) {
	en, err := setupServe(signingKey(t))
	if err != nil {
		t.Fatal(err)
	}
	e := en.(*serveEnv)
	defer func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}()
	var ss sessions
	if r := e.run(0, serveOp{kind: opFresh, replica: 0}, &ss, nil); r.err != nil {
		t.Fatalf("fresh restore failed: %v", r.err)
	}
	if r := e.run(1, serveOp{kind: opResume, replica: 1, target: 0}, &ss, nil); r.err != nil {
		t.Fatalf("resume on the peer failed: %v", r.err)
	}
	if r := e.run(2, serveOp{kind: opLegacy, replica: 1}, &ss, nil); r.err != nil {
		t.Fatalf("legacy restore failed: %v", r.err)
	}

	// A resume answered with any key but the session's original one fails.
	ss.get(0).spub = append([]byte{ss.get(0).spub[0] ^ 1}, ss.get(0).spub[1:]...)
	if r := e.run(3, serveOp{kind: opResume, replica: 1, target: 0}, &ss, nil); r.err == nil ||
		!strings.Contains(r.err.Error(), "server key") {
		t.Fatalf("resume gate did not fire on a different server key: %v", r.err)
	}

	// Released secrets that differ from the deployment's fail the gate.
	e.wantData = append([]byte(nil), e.wantData...)
	e.wantData[7] ^= 0x80
	for i, kind := range []opKind{opFresh, opLegacy} {
		if r := e.run(4+i, serveOp{kind: kind}, &ss, nil); r.err == nil {
			t.Fatalf("%v restore passed against a flipped expected secret byte", kind)
		}
	}
}

// TestServeRunEndToEnd drives the command as the benchmark runner does and
// checks the result line's shape.
func TestServeRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		code := run([]string{"-workload", "serve", "-seed", "5", "-seconds", "1", "-trace", trace, "-out", t.TempDir()}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		want := e2eNames
		if trace == "1" {
			want = perLayerNames()
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
			t.Fatalf("trace %s: result %+v", trace, res)
		}
		for _, n := range want {
			if _, ok := res.Metrics[n]; !ok {
				t.Fatalf("trace %s: metric %s missing", trace, n)
			}
		}
	}
}
