// The exchange operator pair. ColSplitter is the partitioning half: it
// consumes its input stream once (in a producer goroutine) and routes every
// row to one of DOP partition streams by the hash of its encoded key bytes.
// Rows with equal keys always land in the same partition, which is what lets
// a partitioned join, aggregation or plane sweep run each partition
// independently. ColExchange is the merge half: one worker goroutine per
// plan fragment, their batches interleaved into a single stream.
package exec

import (
	"fmt"
	"hash/maphash"
	"sync"

	"talign/internal/colbatch"
	"talign/internal/expr"
	"talign/internal/faultinject"
	"talign/internal/schema"
)

// chanDepth is the number of in-flight batches buffered per channel in the
// exchange layer: enough to decouple producer and consumer bursts without
// holding many batches in memory.
const chanDepth = 4

// ColSplitter routes a columnar stream into dop partition streams.
//
// Joint partitioning: splitters feeding the two sides of a join must agree
// on the partition of equal keys, so they share a maphash seed (passed by
// the caller). A nil key list hashes the entire row (values and valid
// time), the partitioning used for the aligner's group construction, which
// is independent per left tuple.
//
// Partitions are single-use: Open starts the shared producer on first use,
// and a splitter cannot be re-opened after it is exhausted or closed.
type ColSplitter struct {
	batching
	input ColIterator
	keys  rowExprs
	whole bool // nil key list: hash the whole row
	dop   int
	seed  maphash.Seed

	launch   sync.Once
	stop     sync.Once
	chans    []chan *colbatch.Batch
	done     chan struct{}
	finished chan struct{}
	mu       sync.Mutex
	err      error
	launched bool
	// unreleased counts partitions not yet closed. It is pre-registered at
	// construction (not incremented on Open) so that a fragment finishing
	// fast cannot drive the count to zero while a sibling is still opening.
	unreleased int
}

// NewColSplitter builds a splitter over input with dop partitions. Callers
// co-partitioning several inputs (e.g. the two sides of a join) must pass
// the same seed to every splitter of the group.
func NewColSplitter(input ColIterator, keys []expr.Expr, dop int, seed maphash.Seed) (*ColSplitter, error) {
	if dop < 1 {
		return nil, fmt.Errorf("exec: splitter needs dop >= 1, got %d", dop)
	}
	s := &ColSplitter{
		input:      input,
		keys:       rowExprs{es: keys},
		whole:      keys == nil,
		dop:        dop,
		seed:       seed,
		chans:      make([]chan *colbatch.Batch, dop),
		done:       make(chan struct{}),
		finished:   make(chan struct{}),
		unreleased: dop,
	}
	for i := range s.chans {
		s.chans[i] = make(chan *colbatch.Batch, chanDepth)
	}
	return s, nil
}

// Partition returns the columnar iterator for partition i.
func (s *ColSplitter) Partition(i int) ColIterator { return &colPartition{s: s, idx: i} }

func (s *ColSplitter) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *ColSplitter) getErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// run is the producer: it drains the input once and routes rows. Routed
// batches are freshly allocated per send; the consumer owns them. A panic
// anywhere below it (the producer drives its whole input subtree on this
// goroutine) is converted into the splitter's error instead of crashing the
// process; the deferred channel close then wakes every partition consumer,
// which sees the error through getErr.
func (s *ColSplitter) run() {
	defer close(s.finished)
	defer func() {
		for _, ch := range s.chans {
			close(ch)
		}
	}()
	defer func() {
		if err := Recovered("exec.ColSplitter producer", recover()); err != nil {
			s.setErr(err)
		}
	}()
	if err := s.input.Open(); err != nil {
		s.setErr(err)
		return
	}
	defer s.input.Close()
	n := s.batchCap()
	sch := s.input.Schema()
	bufs := make([]*colbatch.Batch, s.dop)
	for i := range bufs {
		bufs[i] = colbatch.New(sch)
	}
	var keyBuf []byte
	for {
		if err := faultinject.Hit("exec.colsplitter.run"); err != nil {
			s.setErr(err)
			return
		}
		b, err := s.input.NextCol()
		if err != nil {
			s.setErr(err)
			return
		}
		if b == nil {
			break
		}
		for i, nsel := 0, b.NumRows(); i < nsel; i++ {
			row := b.RowAt(i)
			if s.whole {
				keyBuf = b.AppendRowKey(keyBuf[:0], row)
			} else if keyBuf, _, err = s.keys.appendKey(keyBuf[:0], b, row); err != nil {
				s.setErr(err)
				return
			}
			p := int(maphash.Bytes(s.seed, keyBuf) % uint64(s.dop))
			bufs[p].AppendFrom(b, row, b.TS[row], b.TE[row])
			if bufs[p].Len() >= n {
				if !s.send(p, bufs[p]) {
					return
				}
				bufs[p] = colbatch.New(sch)
			}
		}
	}
	for p, buf := range bufs {
		if buf.Len() > 0 && !s.send(p, buf) {
			return
		}
	}
}

// send hands a batch to partition p; it reports false when the splitter
// was shut down before the batch could be delivered.
func (s *ColSplitter) send(p int, b *colbatch.Batch) bool {
	select {
	case s.chans[p] <- b:
		return true
	case <-s.done:
		return false
	}
}

// release is called once per partition Close; the last one shuts the
// producer down (it may still be mid-send to an abandoned partition). If
// the producer never launched — the partitions were built but a plan
// construction error meant none was ever Opened — the last release unwinds
// in its place: it closes the channels (freeing the drain goroutines
// spawned by colPartition.Close) and the source iterator.
func (s *ColSplitter) release() {
	s.mu.Lock()
	s.unreleased--
	last := s.unreleased <= 0
	s.mu.Unlock()
	if !last {
		return
	}
	s.stop.Do(func() { close(s.done) })
	s.launch.Do(func() {})
	s.mu.Lock()
	launched := s.launched
	s.mu.Unlock()
	if launched {
		<-s.finished
		return
	}
	for _, ch := range s.chans {
		close(ch)
	}
	s.input.Close()
}

// colPartition is one output stream of a ColSplitter.
type colPartition struct {
	s      *ColSplitter
	idx    int
	closed bool
}

func (p *colPartition) Schema() schema.Schema { return p.s.input.Schema() }

func (p *colPartition) Open() error {
	p.s.launch.Do(func() {
		p.s.mu.Lock()
		p.s.launched = true
		p.s.mu.Unlock()
		go p.s.run()
	})
	return nil
}

func (p *colPartition) NextCol() (*colbatch.Batch, error) {
	b, ok := <-p.s.chans[p.idx]
	if !ok {
		return nil, p.s.getErr()
	}
	return b, nil
}

func (p *colPartition) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	// Drain this partition in the background so the producer can never
	// block on an abandoned stream while sibling partitions still consume
	// (the channel is closed by the producer when it exits).
	go func() {
		for range p.s.chans[p.idx] {
		}
	}()
	p.s.release()
	return nil
}

// ColExchange is the merge half of the exchange operator pair: it runs one
// plan fragment per partition in its own worker goroutine and interleaves
// their output batches into a single stream. Output order across partitions
// is nondeterministic; relations are sets, and order-sensitive consumers
// (ORDER BY, the shell's canonical printing) sort above the exchange.
type ColExchange struct {
	Inputs []ColIterator // one fragment per partition

	ch     chan *colbatch.Batch
	free   chan *colbatch.Batch // batches the consumer is done with
	cur    *colbatch.Batch      // the batch the consumer holds
	done   chan struct{}
	stop   sync.Once
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error
	opened bool
}

// NewColExchange merges the given fragments (all must share a schema).
func NewColExchange(inputs []ColIterator) (*ColExchange, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("exec: exchange needs at least one input")
	}
	return &ColExchange{Inputs: inputs}, nil
}

// Schema implements ColIterator.
func (e *ColExchange) Schema() schema.Schema { return e.Inputs[0].Schema() }

func (e *ColExchange) setErr(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	// Cancel the sibling workers: a failed fragment poisons the query.
	e.stop.Do(func() { close(e.done) })
}

func (e *ColExchange) getErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Open implements ColIterator: it starts the workers.
func (e *ColExchange) Open() error {
	// A worker makes a new batch only when free is empty, so there are never
	// more than fill ch, one per worker and the consumer's.
	depth := chanDepth * len(e.Inputs)
	e.ch, e.free = make(chan *colbatch.Batch, depth), make(chan *colbatch.Batch, depth+len(e.Inputs)+1)
	e.done, e.stop, e.cur = make(chan struct{}), sync.Once{}, nil
	e.opened = true
	for _, in := range e.Inputs {
		e.wg.Add(1)
		go e.worker(in)
	}
	go func() {
		e.wg.Wait()
		close(e.ch)
	}()
	return nil
}

// worker drives one fragment. The fragment's whole operator subtree runs
// on this goroutine, so the drive loop and the teardown are each behind
// a recovery boundary: a panicking fragment poisons the query with a
// structured error (setErr cancels the siblings) and the worker still
// exits through wg.Done — never a crashed process, never a hung Close.
func (e *ColExchange) worker(in ColIterator) {
	defer e.wg.Done()
	if err := e.drive(in); err != nil {
		e.setErr(err)
	}
	if err := closeGuarded("exec.ColExchange fragment close", in); err != nil {
		e.setErr(err)
	}
}

// drive is the worker's pull loop, panic-isolated.
func (e *ColExchange) drive(in ColIterator) (err error) {
	defer RecoverAsError("exec.ColExchange worker", &err)
	if err := in.Open(); err != nil {
		return err
	}
	for {
		if err := faultinject.Hit("exec.exchange.worker"); err != nil {
			return err
		}
		b, err := in.NextCol()
		if err != nil || b == nil {
			return err
		}
		// The fragment reuses its batch, so hand over a copy of the selected
		// rows, in a batch the consumer gave back when there is one.
		var cp *colbatch.Batch
		select {
		case cp = <-e.free:
		default:
			cp = new(colbatch.Batch)
		}
		cp.ResetSchema(b.Schema)
		cp.AppendBatch(b)
		select {
		case e.ch <- cp:
		case <-e.done:
			return nil
		}
	}
}

// closeGuarded closes an iterator behind a recovery boundary: teardown
// of operators a panic left mid-flight must not panic the process.
func closeGuarded(site string, it ColIterator) (err error) {
	defer RecoverAsError(site, &err)
	return it.Close()
}

// NextCol implements ColIterator. The batch the previous call returned goes
// back to the workers.
func (e *ColExchange) NextCol() (*colbatch.Batch, error) {
	if e.cur != nil {
		e.free <- e.cur // never blocks: free has room for every batch there can be
	}
	e.cur = <-e.ch
	if e.cur == nil {
		return nil, e.getErr()
	}
	return e.cur, nil
}

// Close implements ColIterator: it stops the workers, which close their
// fragments, and waits for them.
func (e *ColExchange) Close() error {
	if !e.opened {
		return nil
	}
	e.opened = false
	e.stop.Do(func() { close(e.done) })
	// Unblock any worker parked on a send, then wait for them to finish
	// closing their fragments.
	for range e.ch {
	}
	e.wg.Wait()
	return e.getErr()
}
