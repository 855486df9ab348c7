// Command memserverd runs a standalone Oasis memory page server (§4.3):
// the daemon that serves a sleeping host's VM memory pages over TCP.
//
// Example:
//
//	memserverd -listen 127.0.0.1:7070 -secret changeme
//
// Pair it with memtapctl to upload an image and fault pages back.
//
// For resilience testing, -chaos injects transport faults into every
// accepted connection and -chaos-crash periodically kills and restarts
// the daemon (keeping its image store, like a restart from the persist
// dir), so clients' retry/reconnect/breaker paths can be exercised
// against a real server:
//
//	memserverd -listen 127.0.0.1:7070 -secret changeme \
//	    -chaos read=0.05,write=0.02,partial=0.02,latency=5ms:0.2 \
//	    -chaos-crash 30s -chaos-downtime 2s
package main

import (
	"encoding/pem"
	"flag"
	"log"
	"net"
	"os"
	"time"

	"oasis/internal/faultinject"
	"oasis/internal/memserver"
	"oasis/internal/network"
	"oasis/internal/pagestore"
	"oasis/internal/telemetry"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7070", "address to listen on")
		secret  = flag.String("secret", "", "shared authentication secret (required)")
		useTLS  = flag.Bool("tls", false, "serve TLS with a fresh self-signed certificate (§4.3 Security)")
		certOut = flag.String("cert-out", "", "with -tls: also write the PEM certificate here for clients")
		persist = flag.String("persist", "", "mirror images to this directory and reload them at startup (the shared-drive durability of §4.3)")

		chaosSpec  = flag.String("chaos", "", "inject transport faults into accepted connections, e.g. read=0.05,write=0.02,partial=0.02,latency=5ms:0.2,stall=200ms:0.01")
		chaosSeed  = flag.Uint64("chaos-seed", 1, "seed for the fault injector (deterministic chaos)")
		chaosCrash = flag.Duration("chaos-crash", 0, "kill and restart the daemon this often (0 disables); images survive the restart")
		chaosDown  = flag.Duration("chaos-downtime", 2*time.Second, "with -chaos-crash: how long the daemon stays down per crash")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /traces and /debug/pprof on this address (empty disables); see OBSERVABILITY.md")
	)
	flag.Parse()
	if *secret == "" {
		log.Fatal("memserverd: -secret is required; clients authenticate with HMAC-SHA256")
	}

	if *metricsAddr != "" {
		ts, err := telemetry.Serve(*metricsAddr, nil, nil)
		if err != nil {
			log.Fatalf("memserverd: -metrics-addr: %v", err)
		}
		log.Printf("memserverd: telemetry on http://%s/metrics", ts.Addr())
	}

	var inj *faultinject.Injector
	if *chaosSpec != "" {
		cfg, err := faultinject.ParseSpec(*chaosSpec)
		if err != nil {
			log.Fatalf("memserverd: -chaos: %v", err)
		}
		inj = faultinject.New(*chaosSeed, cfg)
		log.Printf("memserverd: chaos enabled: %s (seed %d)", *chaosSpec, *chaosSeed)
	}

	nw := network.TCP
	if *useTLS {
		host, _, err := net.SplitHostPort(*listen)
		if err != nil {
			log.Fatal(err)
		}
		c, _, err := memserver.GenerateCert([]string{host})
		if err != nil {
			log.Fatal(err)
		}
		if *certOut != "" {
			pemBytes := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: c.Certificate[0]})
			if err := os.WriteFile(*certOut, pemBytes, 0o644); err != nil {
				log.Fatal(err)
			}
			log.Printf("memserverd: wrote certificate to %s", *certOut)
		}
		nw = network.TLS(nw, c, nil)
	}

	// start builds a server over the shared store and brings it up. The
	// first boot loads the persist dir; chaos restarts reuse the same
	// store, exactly like a daemon restarting from its persist dir.
	store := pagestore.NewStore()
	start := func(firstBoot bool) *memserver.Server {
		s := memserver.NewServerWithStore([]byte(*secret), store, log.Printf)
		if *persist != "" {
			if err := s.SetPersistDir(*persist); err != nil {
				log.Fatal(err)
			}
			if firstBoot {
				n, err := s.LoadPersisted()
				if err != nil {
					log.Fatal(err)
				}
				log.Printf("memserverd: restored %d VM image(s) from %s", n, *persist)
			}
		}
		if inj != nil {
			s.SetConnWrapper(inj.WrapConn)
		}
		ln, err := nw.Listen(*listen)
		if err != nil {
			log.Fatalf("memserverd: listen: %v", err)
		}
		s.Serve(ln)
		log.Printf("memserverd: serving on %v", ln.Addr())
		return s
	}
	srv := start(true)

	if *chaosCrash > 0 {
		go faultinject.CrashLoop(nil, *chaosCrash, *chaosDown,
			func() {
				log.Printf("memserverd: CHAOS: crashing (down for %v)", *chaosDown)
				srv.Close()
			},
			func() {
				srv = start(false)
				log.Printf("memserverd: CHAOS: restarted")
			})
	}
	select {}
}
