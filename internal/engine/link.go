package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/multiradio/chanalloc/internal/ndjson"
)

// link is one opened per-batch worker transport: a spawned shard's stdio
// pair.
type link struct {
	remote string
	enc    *json.Encoder
	rd     *ndjson.Reader
	// closeWrite ends the job stream politely; a healthy worker answers by
	// closing its side, which ends the peer's reader.
	closeWrite func() error
	// sever forces the transport down (process kill).
	sever func() error
	// wait releases the transport once the reader has ended (the shard's
	// process exit).
	wait func() error
}

// linkSource is the peer source of the Process backend: a fixed set of
// slots (shards), each yielding one per-batch peer that connects lazily on
// its first job and is torn down when the batch ends. A shard that fails
// is not respawned. Peers send no heartbeats and never enter a registry,
// so their liveness is the transport's: a dead shard ends the reader,
// which requeues what the peer held.
type linkSource struct {
	slots int
	open  func(slot int) (*link, error)
	grace time.Duration // teardown grace before a link is severed
	// exitFatal makes a failed teardown of a link whose peer was still
	// serving at batch end (a non-zero exit, a worker killed after the
	// grace) the batch's error, in exitErr; other teardown failures, and
	// every one without exitFatal, are only logged. Peers that died
	// mid-batch had their jobs requeued, so their exit never counts.
	exitFatal bool
	exitErr   error

	mu     sync.Mutex
	opened []*linkPeer
}

// linkPeer is a peer of a linkSource with the link under it.
type linkPeer struct {
	*peer
	link     *link
	readDone chan struct{}
}

// feed runs every slot for the batch, then tears down the links the batch
// opened.
func (s *linkSource) feed(b *batch, arrivals chan<- *peer) {
	var wg sync.WaitGroup
	for slot := 0; slot < s.slots; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			s.runSlot(b, slot, arrivals)
		}(slot)
	}
	wg.Wait()
	s.teardown()
}

// runSlot hands the dispatcher the slot's peer and holds the slot until
// the peer leaves or the batch stops.
func (s *linkSource) runSlot(b *batch, slot int, arrivals chan<- *peer) {
	p := newPeer("")
	p.open = func() error {
		l, err := s.open(slot)
		if err != nil {
			return err
		}
		s.connect(p, l, b.trouble)
		return nil
	}
	select {
	case arrivals <- p:
	case <-b.stop:
		return
	}
	select {
	case <-p.goneCh:
	case <-b.stop:
	}
}

// connect makes p speak over l and starts its reader, which ends the peer
// when the transport does.
func (s *linkSource) connect(p *peer, l *link, trouble *troubleLog) *linkPeer {
	p.remote, p.enc, p.sever = l.remote, l.enc, l.sever
	lp := &linkPeer{peer: p, link: l, readDone: make(chan struct{})}
	s.mu.Lock()
	s.opened = append(s.opened, lp)
	s.mu.Unlock()
	go func() {
		defer close(lp.readDone)
		err := p.read(l.rd, nil)
		if err == nil {
			// Mid-batch, a clean EOF is a worker that died or hung up.
			err = errors.New("worker closed the connection")
		}
		trouble.note(fmt.Errorf("%s: %w", l.remote, err))
		p.leave()
	}()
	return lp
}

// teardown shuts every opened link down in parallel, so hung workers cost
// one grace period, not one each, and records the first fatal exit (see
// exitFatal) in the order the links were opened.
func (s *linkSource) teardown() {
	s.mu.Lock()
	opened := s.opened
	s.opened = nil
	s.mu.Unlock()
	errs := make([]error, len(opened))
	var wg sync.WaitGroup
	for i, lp := range opened {
		// Liveness is read before the job stream closes: the worker's exit
		// ends the reader, which marks the peer gone.
		fatal := s.exitFatal && lp.live()
		wg.Add(1)
		go func(i int, lp *linkPeer) {
			defer wg.Done()
			err := lp.shutdown(s.grace)
			if err == nil {
				return
			}
			err = fmt.Errorf("%s: worker exit: %w", lp.link.remote, err)
			if fatal {
				errs[i] = err
				return
			}
			fmt.Fprintf(os.Stderr, "engine: %v\n", err)
		}(i, lp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.exitErr = err
			return
		}
	}
}

// shutdown closes the job stream and waits for the worker to end its side
// (the reader's EOF, then the process exit). A worker that hangs instead —
// wedged in a task, or one that stopped reading after a transport error —
// is severed once the grace expires (see reap), so teardown never blocks
// the coordinator forever.
func (lp *linkPeer) shutdown(grace time.Duration) error {
	if err := lp.link.closeWrite(); err != nil {
		lp.link.sever()
	}
	return reap(grace, func() error {
		<-lp.readDone
		return lp.link.wait()
	}, lp.link.sever)
}
