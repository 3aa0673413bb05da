package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph in a SNAP-like text format:
//
//	# name <name>
//	# nodes <n> edges <m> directed <bool> weighted <bool>
//	u v [w]
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name %s\n", g.Name); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "# nodes %d edges %d directed %v weighted %v\n", g.N, len(g.Edges), g.Directed, g.Weighted); err != nil {
		return err
	}
	for _, e := range g.Edges {
		var err error
		if g.Weighted {
			_, err = fmt.Fprintf(bw, "%d %d %g\n", e.U, e.V, e.W)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
		}
		if err != nil {
			return err // first write error; don't keep formatting edges
		}
	}
	return bw.Flush()
}

// readEdgeList parses the format written by WriteEdgeList. Header lines are
// optional: without them the graph is assumed undirected/unweighted with n
// inferred from the maximum vertex id.
func readEdgeList(r io.Reader) (*Graph, error) {
	g := &Graph{Name: "edgelist"}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	maxID := int32(-1)
	declaredN := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(strings.TrimPrefix(line, "#"))
			for i := 0; i+1 < len(fields); i++ {
				switch fields[i] {
				case "name":
					g.Name = fields[i+1]
				case "nodes":
					n, err := strconv.Atoi(fields[i+1])
					if err != nil {
						return nil, fmt.Errorf("graph: bad nodes header: %v", err)
					}
					declaredN = n
				case "directed":
					g.Directed = fields[i+1] == "true"
				case "weighted":
					g.Weighted = fields[i+1] == "true"
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: malformed edge line %q", line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint %q: %v", fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: bad endpoint %q: %v", fields[1], err)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: bad weight %q: %v", fields[2], err)
			}
			g.Weighted = true
		}
		e := Edge{U: int32(u), V: int32(v), W: w}
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
		g.Edges = append(g.Edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g.N = int(maxID) + 1
	if declaredN > g.N {
		g.N = declaredN
	}
	g.Edges = dedupeEdges(g.Edges, g.Directed)
	return g, g.Validate()
}

// LoadFile reads a graph from an edge-list file.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readEdgeList(f)
}

// SaveFile writes a graph to an edge-list file.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
