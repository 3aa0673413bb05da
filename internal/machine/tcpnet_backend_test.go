// Registers the TCP backend into the conformance suite: every shared
// collective/grid/phase/failure test in machine_test.go also runs over a
// real loopback mesh, and its modeled stats must match sim bit-for-bit.
package machine_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/machine/tcpnet"
)

func init() {
	registerBackend(backendCase{
		name: "tcpnet",
		make: func(t testing.TB, p int) machine.Transport {
			mesh, err := tcpnet.StartLocalMesh(p, tcpnet.Options{})
			if err != nil {
				t.Fatalf("tcpnet loopback mesh: %v", err)
			}
			t.Cleanup(func() { mesh.Close() })
			return mesh
		},
		closeRank: func(tr machine.Transport, r int) { tr.(*tcpnet.LocalMesh).Rank(r).Close() },
	})
}
