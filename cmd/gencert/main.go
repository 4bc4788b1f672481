// Command gencert mints a self-signed TLS certificate for the engine's
// cluster and allocd's listener — the quick way to run
// `sweep`/`engineworker`/`allocd` with encrypted transport on a lab
// cluster without standing up a CA. The certificate is its own root: pass
// the SAME cert file as -tls-cert on the listener and -tls-ca on every
// dialer.
//
//	gencert -hosts 127.0.0.1,coord.lab -cert cert.pem -key key.pem
//	sweep -backend cluster -listen-workers :9100 -tls-cert cert.pem -tls-key key.pem ...
//	engineworker -join coord.lab:9100 -tls-ca cert.pem
//
// Production clusters should bring certificates from a real CA instead;
// gencert exists for tests, CI smokes and closed lab networks.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/multiradio/chanalloc"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gencert:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gencert", flag.ContinueOnError)
	hosts := fs.String("hosts", "127.0.0.1,localhost",
		"comma-separated DNS names and IP literals the certificate is valid for")
	certOut := fs.String("cert", "cert.pem", "output path for the PEM certificate")
	keyOut := fs.String("key", "key.pem", "output path for the PEM private key")
	days := fs.Int("days", 365, "validity window in days from now")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var list []string
	for _, h := range strings.Split(*hosts, ",") {
		if h = strings.TrimSpace(h); h != "" {
			list = append(list, h)
		}
	}
	if *days < 1 {
		return fmt.Errorf("-days must be >= 1 (got %d)", *days)
	}
	now := time.Now()
	certPEM, keyPEM, err := chanalloc.GenerateSelfSignedCert(list, now.Add(-time.Hour), now.AddDate(0, 0, *days))
	if err != nil {
		return err
	}
	if err := os.WriteFile(*certOut, certPEM, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(*keyOut, keyPEM, 0o600); err != nil {
		return err
	}
	fmt.Fprintf(out, "gencert: wrote %s and %s for %s (%d days)\n",
		*certOut, *keyOut, strings.Join(list, ","), *days)
	return nil
}
