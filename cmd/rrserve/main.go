// Command rrserve is the residual-resolution lookup service: it loads a
// campaign checkpoint directory (written by dpsmeasure or rrscan with
// -checkpoint-dir) — its newest sealed round, checkpoint plus WAL — and
// answers exposure queries over HTTP. With -follow it keeps polling the
// directory and swaps in each round the writing campaign seals.
//
//	GET /v1/domain/{apex}          current verdict + hidden records
//	GET /v1/domain/{apex}/history  record chain, detections, pause windows
//	GET /v1/domains                the served population, in rank order
//	GET /v1/stats                  store + campaign summary
//	GET /metrics                   request metrics (JSON)
//	GET /healthz                   liveness (never authenticated)
//
// Authentication is by API key (-api-keys), rate limiting by per-key
// token bucket (-rate/-burst; one shared bucket without -api-keys).
// SIGINT/SIGTERM shut down gracefully, draining in-flight requests up
// to -drain.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rrdps/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8173", "listen address (host:port; :0 picks a free port)")
	dir := flag.String("checkpoint-dir", "", "campaign checkpoint directory to serve (read-only); required")
	keys := flag.String("api-keys", "", "comma-separated accepted API keys; empty disables authentication")
	rate := flag.Float64("rate", 50, "per-key request budget in requests/second, shared by all clients without -api-keys (0 disables rate limiting)")
	burst := flag.Int("burst", 100, "per-key burst allowance on top of -rate")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight requests")
	follow := flag.Bool("follow", false, "keep polling -checkpoint-dir and swap in each round the writing campaign seals")
	poll := flag.Duration("poll", time.Second, "with -follow: how often to poll the checkpoint directory")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "rrserve: -checkpoint-dir is required")
		os.Exit(2)
	}
	if *rate < 0 || *burst < 0 || *drain <= 0 {
		fmt.Fprintln(os.Stderr, "rrserve: -rate and -burst must not be negative, -drain must be positive")
		os.Exit(2)
	}
	if *poll <= 0 {
		fmt.Fprintln(os.Stderr, "rrserve: -poll must be positive")
		os.Exit(2)
	}
	var apiKeys []string
	for _, k := range strings.Split(*keys, ",") {
		if k = strings.TrimSpace(k); k != "" {
			apiKeys = append(apiKeys, k)
		}
	}

	src, err := serve.OpenCheckpoint(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrserve: %v\n", err)
		os.Exit(1)
	}
	epoch, ok := src.Epoch()
	if !ok && !*follow {
		fmt.Fprintf(os.Stderr, "rrserve: no sealed campaign state in %s\n", *dir)
		os.Exit(1)
	}
	mode := "loaded"
	if *follow {
		src.Start(*poll)
		defer src.Close()
		mode = fmt.Sprintf("following (poll %v)", *poll)
	}
	if ok {
		day, _ := epoch.View.LatestDay()
		fmt.Printf("rrserve: %s %s: %s campaign, day %d, %d apexes\n",
			mode, *dir, epoch.State.Kind, day, epoch.View.Stats().Apexes)
	} else {
		fmt.Printf("rrserve: %s %s: no sealed rounds yet\n", mode, *dir)
	}
	if len(apiKeys) == 0 {
		fmt.Println("rrserve: warning: no -api-keys, serving unauthenticated")
	}

	srv := serve.New(serve.Config{
		Source:     src,
		APIKeys:    apiKeys,
		RatePerSec: *rate,
		Burst:      *burst,
	})

	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Printf("rrserve: %v, draining (up to %v)\n", sig, *drain)
		close(stop)
	}()

	err = srv.ListenAndServe(*addr, stop, *drain, func(bound string) {
		fmt.Printf("rrserve: serving on http://%s\n", bound)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("rrserve: bye")
}
