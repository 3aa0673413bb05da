package machine

// NewGrid2 exposes the 2D grid constructor to the package's external
// tests.
var NewGrid2 = newGrid2

// RankAt returns the communicator rank of grid position (i, j).
func (g *Grid2) RankAt(i, j int) int { return i*g.PC + j }

// RankAt returns the communicator rank of (layer, i, j).
func (g *Grid3) RankAt(layer, i, j int) int {
	return layer*g.P2*g.P3 + i*g.P3 + j
}
