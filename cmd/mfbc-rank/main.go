// Command mfbc-rank is one worker process of a rank-per-process TCP
// machine. It joins the mesh at its assigned rank, acknowledges readiness
// to the coordinator (the handshake ships no configuration: every rank
// prices with the one cost model), and then mirrors the coordinator's
// streaming engines: every
// engine build and mutation batch the coordinator (mfbc-serve
// -transport tcp, always rank 0) broadcasts is replayed on a local
// replica, with this process contributing its rank's shard of every
// machine region (see internal/rankrun).
//
// Start one process per peer-list entry, every process with the same
// -peers value:
//
//	mfbc-serve -transport tcp -peers 10.0.0.1:7000,10.0.0.2:7000,10.0.0.3:7000 &
//	mfbc-rank  -rank 1 -peers 10.0.0.1:7000,10.0.0.2:7000,10.0.0.3:7000 &
//	mfbc-rank  -rank 2 -peers 10.0.0.1:7000,10.0.0.2:7000,10.0.0.3:7000 &
//
// The process exits 0 on the coordinator's orderly shutdown and nonzero
// when the mesh fails (a lost peer poisons the whole machine; restart
// the fleet to recover).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"repro/internal/machine/tcpnet"
	"repro/internal/rankrun"
)

func main() {
	rank := flag.Int("rank", 0, "this process's rank (1..p-1; rank 0 is the mfbc-serve coordinator)")
	peers := flag.String("peers", "", "comma-separated host:port of every rank, in rank order (identical on all processes)")
	rendezvous := flag.Duration("rendezvous", 0, "how long to keep retrying the mesh connect while peers start (0 = 15s default)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	list := splitPeers(*peers)
	if len(list) < 2 {
		fmt.Fprintln(os.Stderr, "mfbc-rank: -peers needs at least two host:port entries")
		os.Exit(2)
	}
	if *rank < 1 || *rank >= len(list) {
		fmt.Fprintf(os.Stderr, "mfbc-rank: -rank must be in 1..%d\n", len(list)-1)
		os.Exit(2)
	}

	start := time.Now()
	tr, err := tcpnet.Join(*rank, list, tcpnet.Options{Rendezvous: *rendezvous})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mfbc-rank:", err)
		os.Exit(1)
	}
	defer tr.Close()
	logger.Info("joined mesh", "rank", *rank, "ranks", len(list),
		"rendezvous", time.Since(start).Round(time.Millisecond), "addr", list[*rank])

	if err := rankrun.ServeWorker(tr); err != nil {
		fmt.Fprintln(os.Stderr, "mfbc-rank:", err)
		os.Exit(1)
	}
	logger.Info("coordinator shut down; exiting", "rank", *rank)
}

// splitPeers parses the comma-separated peer list, trimming blanks.
func splitPeers(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
