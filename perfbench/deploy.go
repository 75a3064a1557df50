package main

import (
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"net"

	"sgxelide/internal/bench"
	"sgxelide/internal/edl"
	"sgxelide/internal/elf"
	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// machine is one simulated SGX machine: attestation CA, platform with the
// default EPC, and the untrusted runtime every enclave of a run loads on.
type machine struct {
	ca      *sgx.CA
	host    *sdk.Host
	metrics *obs.Registry // Host.Metrics: ecall/ocall dispatch counters
}

func newMachine() (*machine, error) {
	ca, err := sgx.NewCA()
	if err != nil {
		return nil, err
	}
	p, err := sgx.NewPlatform(sgx.Config{}, ca)
	if err != nil {
		return nil, err
	}
	h := sdk.NewHost(p)
	h.Metrics = obs.NewRegistry()
	return &machine{ca: ca, host: h, metrics: h.Metrics}, nil
}

// Data modes of a protected deployment.
const (
	modeRemote = "remote"
	modeLocal  = "local"
)

// deployment is one protected program in one data mode, plus what the
// benchmark checks a restore against.
type deployment struct {
	prog *bench.Program
	mode string
	prot *elide.Protected

	// The .text section of the pre-sanitization image: a restore must make
	// the enclave's text equal to it.
	textAddr uint64
	text     []byte
}

func (d *deployment) name() string { return d.prog.Name + "." + d.mode }

// buildDeployment runs the developer-side toolchain: compile with the
// SgxElide runtime, sanitize, sign the sanitized image.
func buildDeployment(m *machine, key *rsa.PrivateKey, wl elide.Whitelist, p *bench.Program, mode string) (*deployment, error) {
	prot, err := elide.BuildProtected(m.host, elide.BuildProtectedOptions{
		Sanitize:  elide.SanitizeOptions{EncryptLocal: mode == modeLocal},
		AppEDL:    p.EDL,
		Sources:   []sdk.Source{sdk.C(p.Name+".c", p.TrustedC)},
		SignKey:   key,
		Whitelist: wl,
	})
	if err != nil {
		return nil, fmt.Errorf("building %s.%s: %w", p.Name, mode, err)
	}
	pf, err := elf.Read(prot.PlainELF)
	if err != nil {
		return nil, err
	}
	text := pf.Section(".text")
	if text == nil {
		return nil, fmt.Errorf("%s: plain image has no .text", p.Name)
	}
	return &deployment{prog: p, mode: mode, prot: prot, textAddr: text.Addr,
		text: append([]byte(nil), pf.SectionData(text)...)}, nil
}

// serverSecret is the plaintext a deployment's server releases (nil when
// the data ships encrypted with the enclave).
func serverSecret(p *elide.Protected) []byte {
	switch {
	case !p.Meta.Encrypted:
		return p.SecretData
	case p.Meta.Hybrid:
		return p.SecretPlain
	}
	return nil
}

// register adds deployments to a secret store under their measurements.
func register(st *elide.SecretStore, ds []*deployment) error {
	for _, d := range ds {
		if _, err := st.Register(d.prot.Measurement, d.prot.Meta, serverSecret(d.prot), d.name()); err != nil {
			return err
		}
	}
	return nil
}

// baselineImage is a program built as a plain SGX enclave (no SgxElide),
// signed: the "w/ SGX" side of Figures 3 and 4.
type baselineImage struct {
	elf   []byte
	ss    *sgx.SigStruct
	iface *edl.Interface
}

func buildBaseline(m *machine, key *rsa.PrivateKey, p *bench.Program) (*baselineImage, error) {
	iface, err := edl.Parse(p.EDL)
	if err != nil {
		return nil, err
	}
	res, err := sdk.BuildEnclave(sdk.BuildConfig{}, iface, sdk.C(p.Name+".c", p.TrustedC))
	if err != nil {
		return nil, fmt.Errorf("building %s baseline: %w", p.Name, err)
	}
	mr, err := sdk.MeasureELF(m.host, res.ELF)
	if err != nil {
		return nil, err
	}
	ss, err := sgx.SignEnclave(key, mr, 1, 1)
	if err != nil {
		return nil, err
	}
	return &baselineImage{elf: res.ELF, ss: ss, iface: iface}, nil
}

// serving is an authentication server running on a loopback listener.
type serving struct {
	srv    *elide.Server
	addr   string
	cancel context.CancelFunc
	done   chan error
}

// serve runs srv on l until stop.
func serve(srv *elide.Server, l net.Listener) *serving {
	ctx, cancel := context.WithCancel(context.Background())
	s := &serving{srv: srv, addr: l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ctx, l) }()
	return s
}

// stop shuts the server down and waits for Serve to return.
func (s *serving) stop() error {
	s.cancel()
	if err := <-s.done; err != nil && !errors.Is(err, elide.ErrServerClosed) {
		return err
	}
	return nil
}
