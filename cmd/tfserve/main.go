// Command tfserve is the inference server: it serves frozen models
// exported by tf.Freeze (or `tftool freeze`) over HTTP/JSON, with load-aware
// micro-batching (a request runs at once while an executor is free and shares
// a step with its neighbours only when none is; -batch-window caps the
// queueing) and versioned hot reload — the counterpart of the
// reference system's serving tier (§2, §7: "inference at scale"). It is
// distinct from cmd/tfserver, which hosts one worker task of a distributed
// TRAINING cluster.
//
// Models live in a root directory, one subdirectory per model with integer
// version subdirectories; the highest version serves, and new versions
// dropped into the directory are picked up on the reload interval — loaded
// and warmed off the serving path, atomically swapped in, the old version
// drained without dropping a request:
//
//	models/
//	  mnist/1/{graph.bin,signature.json}
//	  mnist/2/{graph.bin,signature.json}   <- serves
//
//	tfserve -models ./models -addr :8501 -max-batch-size 32 -batch-window 2ms
//
// API:
//
//	POST /v1/models/<name>:predict   {"inputs": {"x": {"shape": [1,4], "values": [...]}}}
//	GET  /v1/models                  status of every loaded model
//	GET  /healthz                    liveness
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "repro/internal/ops"
	"repro/internal/serving"
)

// readHeaderTimeout bounds how long a connection may take to deliver its
// request headers; without it a client that connects and goes quiet holds a
// goroutine for as long as the process lives.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8501", "listen address")
	models := flag.String("models", "", "model root directory (required)")
	maxBatch := flag.Int("max-batch-size", 32, "max rows stacked into one batched step (<=1 disables batching)")
	window := flag.Duration("batch-window", 2*time.Millisecond, "cap on the time a request queues behind busy executors before its batch runs anyway; an idle server never waits (0 disables batching)")
	reload := flag.Duration("reload-interval", 5*time.Second, "how often to scan for new model versions (0 disables hot reload)")
	flag.Parse()
	if *models == "" {
		log.Fatal("tfserve: -models is required")
	}

	reg := serving.NewRegistry(*models, serving.ModelOptions{MaxBatch: *maxBatch, Window: *window})
	if err := reg.LoadAll(); err != nil {
		log.Fatalf("tfserve: %v", err)
	}
	for _, st := range reg.Status() {
		log.Printf("tfserve: serving model %s v%d (signature %q, batched=%t)", st.Name, st.Version, st.Signature, st.Batched)
	}

	stopReload := make(chan struct{})
	if *reload > 0 {
		go func() {
			t := time.NewTicker(*reload)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := reg.ReloadAll(); err != nil {
						log.Printf("tfserve: reload: %v", err)
					}
				case <-stopReload:
					return
				}
			}
		}()
	}

	srv := &http.Server{Addr: *addr, Handler: serving.NewServer(reg).Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		log.Printf("tfserve: listening on %s (models from %s)", *addr, *models)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("tfserve: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("tfserve: shutting down")
	close(stopReload)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("tfserve: shutdown: %v", err)
	}
	reg.Close()
}
