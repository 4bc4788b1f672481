package engine

import (
	"crypto/tls"
	"os"
	"path/filepath"
	"strings"
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

// TestTLSExpiredCert: a coordinator certificate past its notAfter fails a
// joining worker's verification at dial time.
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
	c, err := NewCluster("127.0.0.1:0", WithTLS(srvCfg), WithJoinWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	err = JoinAndServe(c.Addr(), WithJoinTLS(cliCfg), WithJoinRetryWait(time.Millisecond),
		WithJoinAttempts(2))
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
	joinWorker(t, c.Addr(), WithJoinTLS(skip))
	if _, _, err := c.RunTask("conformance/draw", []byte(`{"mul":1}`), 3, Seed(1)); err != nil {
		t.Fatalf("skip-verify join failed: %v", err)
	}
}

// TestPlainDialsTLS: a plain worker joining a TLS coordinator dies on the
// first exchange with a hint that the two ends disagree about TLS.
func TestPlainDialsTLS(t *testing.T) {
	srvCfg, _ := testTLSPair(t)
	c, err := NewCluster("127.0.0.1:0", WithTLS(srvCfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	err = JoinAndServe(c.Addr(), WithJoinRetryWait(time.Millisecond), WithJoinAttempts(2))
	if err == nil {
		t.Fatal("plain join of a TLS coordinator succeeded")
	}
	if !strings.Contains(err.Error(), "TLS-expecting") {
		t.Fatalf("error %q lacks the TLS-skew hint", err)
	}
}

// TestTLSDialsPlain: the reverse skew — a TLS worker joining a plain
// coordinator — fails the handshake at dial time.
func TestTLSDialsPlain(t *testing.T) {
	_, cliCfg := testTLSPair(t)
	c, err := NewCluster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	err = JoinAndServe(c.Addr(), WithJoinTLS(cliCfg), WithJoinRetryWait(time.Millisecond),
		WithJoinAttempts(2))
	if err == nil {
		t.Fatal("TLS join of a plain coordinator succeeded")
	}
	if !strings.Contains(err.Error(), "TLS handshake with") {
		t.Fatalf("error %q does not name the TLS handshake", err)
	}
}

// TestTLSClusterJoinBadCA: a worker verifying against the WRONG root fails
// the handshake at dial time, naming the address and the likely cause.
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
