package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Samples is one parsed exposition: fully-labeled series name → value.
// Histograms appear as their _bucket/_sum/_count expansions, the same
// shape the text format carries.
type Samples map[string]float64

// ParseText is the inverse of Registry.WriteText: it parses Prometheus
// text exposition into its samples. Comment and blank lines are skipped;
// a malformed sample line is an error. Exemplar suffixes (` # {...} value`)
// on histogram bucket lines are stripped — the result carries series
// values only.
func ParseText(text string) (Samples, error) {
	out := Samples{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if j := strings.Index(line, " # "); j >= 0 {
			line = strings.TrimSpace(line[:j])
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("obs: malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad value in metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}
