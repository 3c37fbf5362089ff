package graph

import (
	"bytes"
	_ "embed"
)

// The checked-in sample dataset: a ~1000-node Gnutella-shaped edge list
// in SNAP format (sparse scrambled IDs, header comments), small enough to
// commit but real-shaped enough to exercise the loader's remapping and
// the CSR fragment layout. Tests and exp N7 load this same file, so
// their numbers are comparable across machines.
//
//go:embed testdata/p2p-sample.txt
var sampleSNAP []byte

// SampleSNAP parses the embedded sample dataset, labeling nodes from the
// given alphabet (nil = unlabeled), so callers need no path to
// internal/graph/testdata/p2p-sample.txt.
func SampleSNAP(labels []string) (*Graph, error) {
	return ReadSNAP(bytes.NewReader(sampleSNAP), labels)
}
