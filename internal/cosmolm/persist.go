package cosmolm

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"cosmo/internal/catalog"
	"cosmo/internal/classifier"
	"cosmo/internal/instruction"
	"cosmo/internal/relations"
)

// modelSnapshot is the serializable form of a trained COSMO-LM, used by
// the deployment manager's model refresh (the SageMaker-update analog).
type modelSnapshot struct {
	Tails    []tailSnapshot
	Inverted map[string]map[int]int
	DocFreq  map[string]int
	NumDocs  int
	HeadDim  int
	Heads    map[instruction.Task]*classifier.LogReg
}

type tailSnapshot struct {
	Relation relations.Relation
	Tail     string
	Count    int
	Domains  map[catalog.Category]int
}

// WriteGob serializes the trained model.
func (m *Model) WriteGob(w io.Writer) error {
	snap := modelSnapshot{
		Inverted: make(map[string]map[int]int, len(m.postings)),
		DocFreq:  m.docFreq,
		NumDocs:  m.numDocs,
		HeadDim:  m.headDim,
		Heads:    m.heads,
	}
	for tok, ps := range m.postings {
		counts := make(map[int]int, len(ps))
		for _, p := range ps {
			counts[int(p.tail)] = int(p.count)
		}
		snap.Inverted[tok] = counts
	}
	for _, t := range m.tails {
		snap.Tails = append(snap.Tails, tailSnapshot{
			Relation: t.relation, Tail: t.tail, Count: t.count, Domains: t.domains,
		})
	}
	// Buffered like the kg exporters: gob emits many small writes, and
	// the flush error must not be dropped.
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(snap); err != nil {
		return fmt.Errorf("cosmolm: encode gob: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("cosmolm: flush gob: %w", err)
	}
	return nil
}

// ReadGob loads a model previously written with WriteGob.
func ReadGob(r io.Reader) (*Model, error) {
	var snap modelSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("cosmolm: decode gob: %w", err)
	}
	for tok, counts := range snap.Inverted {
		for id, cnt := range counts {
			if id < 0 || id >= len(snap.Tails) || cnt < 0 || cnt > math.MaxInt32 {
				return nil, fmt.Errorf("cosmolm: decode gob: token %q counts %d for tail %d of %d", tok, cnt, id, len(snap.Tails))
			}
		}
	}
	if snap.HeadDim <= 0 {
		return nil, fmt.Errorf("cosmolm: decode gob: head dimension %d", snap.HeadDim)
	}
	m := &Model{
		postings: buildPostings(snap.Inverted, snap.DocFreq, snap.NumDocs),
		docFreq:  snap.DocFreq,
		numDocs:  snap.NumDocs,
		headDim:  snap.HeadDim,
		heads:    snap.Heads,
	}
	if m.docFreq == nil {
		m.docFreq = map[string]int{}
	}
	if m.heads == nil {
		m.heads = map[instruction.Task]*classifier.LogReg{}
	}
	for _, t := range snap.Tails {
		m.tails = append(m.tails, tailEntry{
			relation: t.Relation, tail: t.Tail, count: t.Count, domains: t.Domains,
		})
	}
	m.prior = buildPrior(m.tails)
	return m, nil
}
