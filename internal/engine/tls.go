package engine

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"os"
	"time"
)

// TLS on the engine's network path. The protocol is transport-agnostic
// newline-delimited JSON; TLS slots in UNDER the framing, so every frame
// byte — register, hello, job, result, heartbeat — is identical on plain
// TCP, unix sockets and TLS connections (the conformance suite runs the
// cluster both ways to pin it). The cluster coordinator listens (serves
// the cert) and the joining workers dial (verify it).
//
// Configuration mirrors the flag surface of the binaries:
//
//	listeners  -tls-cert/-tls-key  →  ServerTLSConfig
//	dialers    -tls-ca             →  ClientTLSConfig (custom roots)
//	           -tls-skip-verify    →  ClientTLSConfig (tests; still encrypts)
//
// A plain dialer hitting a TLS listener (or the reverse) fails the very
// first exchange — the register reply never parses — so skew is loud at
// connect time, like protocol-version skew.

// ServerTLSConfig loads a listener's certificate/key pair. Both paths must
// be set together: a cert without a key (or the reverse) is a configuration
// error worth dying loudly for, not a silent fall-back to plaintext.
func ServerTLSConfig(certFile, keyFile string) (*tls.Config, error) {
	if certFile == "" || keyFile == "" {
		return nil, fmt.Errorf("engine: -tls-cert and -tls-key must be set together (got cert %q, key %q)", certFile, keyFile)
	}
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("engine: loading TLS key pair: %w", err)
	}
	return &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}, nil
}

// ClientTLSConfig builds a dialer's TLS configuration. caFile, when
// non-empty, replaces the system roots with the given PEM bundle — the
// normal shape for a cluster running its own CA or self-signed certs.
// skipVerify disables certificate verification entirely (the connection is
// still encrypted); it exists for tests and should never cross a real
// network.
func ClientTLSConfig(caFile string, skipVerify bool) (*tls.Config, error) {
	cfg := &tls.Config{MinVersion: tls.VersionTLS12}
	if skipVerify {
		cfg.InsecureSkipVerify = true
		return cfg, nil
	}
	if caFile != "" {
		pemBytes, err := os.ReadFile(caFile)
		if err != nil {
			return nil, fmt.Errorf("engine: reading TLS CA bundle: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pemBytes) {
			return nil, fmt.Errorf("engine: no certificates found in CA bundle %s", caFile)
		}
		cfg.RootCAs = pool
	}
	return cfg, nil
}

// tlsClientConn wraps an established connection in a TLS client session and
// runs the handshake eagerly (bounded by timeout) so certificate problems —
// unknown authority, expired cert, a plain listener answering with
// non-TLS bytes — surface as dial-time errors with the address attached,
// not as mysterious decode failures mid-protocol. The config is cloned per
// connection so a shared config can serve many addresses: ServerName
// defaults to the dialed host when the caller left it (and verification)
// unset; unix-socket dials have no host, so certificates for them must
// carry a name the caller pins via cfg.ServerName, or use skip-verify.
func tlsClientConn(conn net.Conn, cfg *tls.Config, address string, timeout time.Duration) (net.Conn, error) {
	c := cfg.Clone()
	if c.ServerName == "" && !c.InsecureSkipVerify {
		if host, _, err := net.SplitHostPort(address); err == nil {
			c.ServerName = host
		}
	}
	tc := tls.Client(conn, c)
	if timeout > 0 {
		tc.SetDeadline(time.Now().Add(timeout))
	}
	if err := tc.Handshake(); err != nil {
		tc.Close()
		return nil, fmt.Errorf("TLS handshake with %s: %w (is the listener serving TLS with a certificate this dialer trusts?)", address, err)
	}
	tc.SetDeadline(time.Time{})
	return tc, nil
}

// dialWorkerConn dials a (network, address) pair and, when tlsCfg is
// non-nil, layers the TLS client session on top: the cluster worker's
// join dial.
func dialWorkerConn(network, address string, timeout time.Duration, tlsCfg *tls.Config) (net.Conn, error) {
	conn, err := net.DialTimeout(network, address, timeout)
	if err != nil {
		return nil, fmt.Errorf("dialing: %w", err)
	}
	if tlsCfg == nil {
		return conn, nil
	}
	tc, err := tlsClientConn(conn, tlsCfg, address, timeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return tc, nil
}

// GenerateSelfSignedCert mints a fresh ECDSA P-256 self-signed certificate
// for the given hosts (DNS names or IP literals) valid over [notBefore,
// notAfter], returned as PEM cert and key blocks. It backs cmd/gencert and
// the TLS test/CI smoke paths; production clusters should bring real
// certificates instead.
func GenerateSelfSignedCert(hosts []string, notBefore, notAfter time.Time) (certPEM, keyPEM []byte, err error) {
	if len(hosts) == 0 {
		return nil, nil, fmt.Errorf("engine: self-signed cert needs at least one host")
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: generating key: %w", err)
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return nil, nil, fmt.Errorf("engine: generating serial: %w", err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{Organization: []string{"chanalloc dev"}, CommonName: hosts[0]},
		NotBefore:             notBefore,
		NotAfter:              notAfter,
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
		BasicConstraintsValid: true,
		IsCA:                  true, // lets the cert double as its own -tls-ca root
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tmpl.IPAddresses = append(tmpl.IPAddresses, ip)
		} else {
			tmpl.DNSNames = append(tmpl.DNSNames, h)
		}
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: creating certificate: %w", err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: marshalling key: %w", err)
	}
	certPEM = pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyPEM = pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	return certPEM, keyPEM, nil
}
