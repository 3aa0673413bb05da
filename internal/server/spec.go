package server

import "repro/internal/graph"

// GraphSpec is the register route's body: a graph to build into the
// registry from one of the library generators (GraphSpec.Build validates
// and builds it). There is no file kind: a client never names a path the
// server opens, and edge-list files load only through Server.LoadGraph
// (mfbc-serve -preload).
type GraphSpec = graph.GraphSpec
