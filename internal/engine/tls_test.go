package engine

import (
	"crypto/tls"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// writeTestCert mints a self-signed cert for hosts over [notBefore,
// notAfter] and writes the PEM pair to files, returning their paths.
func writeTestCert(t *testing.T, hosts []string, notBefore, notAfter time.Time) (certFile, keyFile string) {
	t.Helper()
	certPEM, keyPEM, err := GenerateSelfSignedCert(hosts, notBefore, notAfter)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile, certPEM, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, keyPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	return certFile, keyFile
}

// testTLSPair builds a matched server/client config pair for loopback: the
// self-signed cert doubles as the client's CA root.
func testTLSPair(t *testing.T) (server, client *tls.Config) {
	t.Helper()
	now := time.Now()
	certFile, keyFile := writeTestCert(t, []string{"127.0.0.1"}, now.Add(-time.Hour), now.Add(time.Hour))
	server, err := ServerTLSConfig(certFile, keyFile)
	if err != nil {
		t.Fatal(err)
	}
	client, err = ClientTLSConfig(certFile, false)
	if err != nil {
		t.Fatal(err)
	}
	return server, client
}

// startServeTLS runs a TLS worker listener serving the test binary's
// registered tasks, returning its dial address.
func startServeTLS(t *testing.T, srvCfg *tls.Config) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); Serve(lis, WithServeTLS(srvCfg)) }()
	t.Cleanup(func() { lis.Close(); <-done })
	return lis.Addr().String()
}

// startTLSCluster mirrors startCluster with TLS on the coordinator listener
// and every joining worker's dial.
func startTLSCluster(t *testing.T, workers int, srvCfg, cliCfg *tls.Config, opts ...RemoteOption) *Cluster {
	t.Helper()
	c, err := NewCluster("127.0.0.1:0",
		append([]RemoteOption{WithJoinWait(10 * time.Second), WithTLS(srvCfg)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := JoinAndServe(c.Addr(), WithJoinStop(stop),
				WithJoinRetryWait(10*time.Millisecond), WithJoinTLS(cliCfg))
			if err != nil {
				t.Errorf("worker join: %v", err)
			}
		}()
	}
	t.Cleanup(func() {
		close(stop)
		c.Close()
		wg.Wait()
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.reg.Len() < workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.reg.Len() < workers {
		t.Fatalf("only %d of %d workers joined", c.reg.Len(), workers)
	}
	return c
}

// TestServerTLSConfigValidation: cert and key must come together, and the
// pair must actually load.
func TestServerTLSConfigValidation(t *testing.T) {
	if _, err := ServerTLSConfig("cert.pem", ""); err == nil {
		t.Fatal("cert without key accepted")
	}
	if _, err := ServerTLSConfig("", "key.pem"); err == nil {
		t.Fatal("key without cert accepted")
	}
	if _, err := ServerTLSConfig("/nonexistent/cert.pem", "/nonexistent/key.pem"); err == nil {
		t.Fatal("unloadable pair accepted")
	}
}

// TestClientTLSConfigValidation: a missing or certificate-free CA bundle is
// a loud configuration error.
func TestClientTLSConfigValidation(t *testing.T) {
	if _, err := ClientTLSConfig("/nonexistent/ca.pem", false); err == nil {
		t.Fatal("missing CA bundle accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.pem")
	if err := os.WriteFile(empty, []byte("not a pem"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ClientTLSConfig(empty, false); err == nil {
		t.Fatal("certificate-free bundle accepted")
	}
	cfg, err := ClientTLSConfig("", true)
	if err != nil || !cfg.InsecureSkipVerify {
		t.Fatalf("skip-verify config: %+v, err=%v", cfg, err)
	}
}

// TestTLSSocketRoundTrip: a full batch over a TLS socket worker matches the
// in-process backend byte for byte (the frame bytes are unchanged — TLS sits
// under the JSON framing).
func TestTLSSocketRoundTrip(t *testing.T) {
	srvCfg, cliCfg := testTLSPair(t)
	addr := startServeTLS(t, srvCfg)
	params := []byte(`{"mul":31,"label":"tls"}`)
	want, _, err := NewInProcess().RunTask("conformance/draw", params, 11, Seed(9))
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := NewSocketWith([]string{addr}, WithTLS(cliCfg)).
		RunTask("conformance/draw", params, 11, Seed(9))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != 11 {
		t.Fatalf("stats %+v", stats)
	}
	for job := range want {
		if string(want[job]) != string(got[job]) {
			t.Fatalf("job %d: %s (plain) vs %s (tls)", job, want[job], got[job])
		}
	}
}

// TestTLSBadCA: a dialer verifying against the WRONG root must fail the
// handshake at dial time, naming the address and the likely cause.
func TestTLSBadCA(t *testing.T) {
	srvCfg, _ := testTLSPair(t)
	_, wrongCA := testTLSPair(t) // a different self-signed root
	addr := startServeTLS(t, srvCfg)
	_, _, err := NewSocketWith([]string{addr}, WithTLS(wrongCA)).
		RunTask("conformance/draw", []byte(`{"mul":1}`), 3, Seed(1))
	if err == nil {
		t.Fatal("wrong CA verified")
	}
	if !strings.Contains(err.Error(), "TLS handshake with") {
		t.Fatalf("error %q does not name the TLS handshake", err)
	}
}

// TestTLSExpiredCert: a certificate past its notAfter fails verification.
func TestTLSExpiredCert(t *testing.T) {
	now := time.Now()
	certFile, keyFile := writeTestCert(t, []string{"127.0.0.1"},
		now.Add(-2*time.Hour), now.Add(-time.Hour))
	srvCfg, err := ServerTLSConfig(certFile, keyFile)
	if err != nil {
		t.Fatal(err)
	}
	cliCfg, err := ClientTLSConfig(certFile, false)
	if err != nil {
		t.Fatal(err)
	}
	addr := startServeTLS(t, srvCfg)
	_, _, err = NewSocketWith([]string{addr}, WithTLS(cliCfg)).
		RunTask("conformance/draw", []byte(`{"mul":1}`), 3, Seed(1))
	if err == nil {
		t.Fatal("expired certificate verified")
	}
	if !strings.Contains(err.Error(), "TLS handshake with") {
		t.Fatalf("error %q does not name the TLS handshake", err)
	}
	// Skip-verify still connects to the expired cert — encryption without
	// verification, the test-only escape hatch.
	skip, err := ClientTLSConfig("", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewSocketWith([]string{addr}, WithTLS(skip)).
		RunTask("conformance/draw", []byte(`{"mul":1}`), 3, Seed(1)); err != nil {
		t.Fatalf("skip-verify dial failed: %v", err)
	}
}

// TestPlainDialsTLS: a plain coordinator dialing a TLS worker dies on the
// first exchange with a hint that the two ends disagree about TLS.
func TestPlainDialsTLS(t *testing.T) {
	srvCfg, _ := testTLSPair(t)
	addr := startServeTLS(t, srvCfg)
	_, _, err := NewSocket(addr).RunTask("conformance/draw", []byte(`{"mul":1}`), 3, Seed(1))
	if err == nil {
		t.Fatal("plain dial of a TLS listener succeeded")
	}
	if !strings.Contains(err.Error(), "TLS-expecting") {
		t.Fatalf("error %q lacks the TLS-skew hint", err)
	}
}

// TestTLSDialsPlain: the reverse skew — a TLS dialer hitting a plain
// listener — fails the handshake at dial time.
func TestTLSDialsPlain(t *testing.T) {
	_, cliCfg := testTLSPair(t)
	addr := startServe(t, "tcp", "127.0.0.1:0")
	_, _, err := NewSocketWith([]string{addr}, WithTLS(cliCfg)).
		RunTask("conformance/draw", []byte(`{"mul":1}`), 3, Seed(1))
	if err == nil {
		t.Fatal("TLS dial of a plain listener succeeded")
	}
	if !strings.Contains(err.Error(), "TLS handshake with") {
		t.Fatalf("error %q does not name the TLS handshake", err)
	}
}

// TestTLSClusterJoinBadCA: the cluster join path surfaces handshake failures
// the same way (and the register handshake hint mentions TLS when a plain
// worker dials a TLS coordinator).
func TestTLSClusterJoinBadCA(t *testing.T) {
	srvCfg, _ := testTLSPair(t)
	_, wrongCA := testTLSPair(t)
	c, err := NewCluster("127.0.0.1:0", WithTLS(srvCfg), WithJoinWait(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = JoinAndServe(c.Addr(), WithJoinTLS(wrongCA), WithJoinRetryWait(time.Millisecond),
		WithJoinAttempts(2))
	if err == nil {
		t.Fatal("wrong CA joined the cluster")
	}
	if !strings.Contains(err.Error(), "TLS handshake with") {
		t.Fatalf("error %q does not name the TLS handshake", err)
	}
}

// TestGenerateSelfSignedCertValidation: no hosts is an error; IP and DNS
// hosts both land in the SANs (verified implicitly by the loopback tests).
func TestGenerateSelfSignedCertValidation(t *testing.T) {
	if _, _, err := GenerateSelfSignedCert(nil, time.Now(), time.Now().Add(time.Hour)); err == nil {
		t.Fatal("certificate with no hosts generated")
	}
	certPEM, keyPEM, err := GenerateSelfSignedCert([]string{"localhost", "127.0.0.1"},
		time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tls.X509KeyPair(certPEM, keyPEM); err != nil {
		t.Fatalf("generated pair does not load: %v", err)
	}
}
