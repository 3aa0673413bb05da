package graph

// LayeredDAG exposes the stand-ins' citation-network generator to the
// package's external tests.
var LayeredDAG = layeredDAG
