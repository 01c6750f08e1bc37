package fabric

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"

	"cfc/internal/check"
)

// Work connects to the coordinator at addr and serves jobs until the
// coordinator says bye or the connection closes. The registry must
// resolve the same names to the same programs as the coordinator's —
// it is the two sides' only shared vocabulary.
//
// The worker holds no authoritative state between messages: whole-entry
// jobs run check.Explore on a program built fresh from the registry,
// and wave chunks are expanded by the shard's wave prober. A prober DOES
// persist performance state across chunks — its live session, reused by
// longest common prefix — but every report stays a pure function of the
// task it answers, which is what makes coordinator-side requeueing after
// a worker loss sound: the state dies with the connection and loses
// nothing.
func Work(tr Transport, addr string, reg Registry, logw io.Writer) (err error) {
	logf := func(format string, args ...any) {
		if logw != nil {
			fmt.Fprintf(logw, "fabric: "+format+"\n", args...)
		}
	}
	// The coordinator may still be binding when the worker starts (the
	// smoke script launches all three processes at once), so dialing
	// retries briefly before giving up.
	var rwc io.ReadWriteCloser
	for attempt := 0; ; attempt++ {
		rwc, err = tr.Dial(addr)
		if err == nil {
			break
		}
		if attempt >= 50 {
			return fmt.Errorf("fabric: dial %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer rwc.Close()
	defer func() {
		if peerClosed(err) {
			err = nil
		}
	}()
	br := bufio.NewReaderSize(rwc, 64<<10)
	if err := WriteFrame(rwc, &Msg{T: MsgHello, V: ProtoVersion}); err != nil {
		return err
	}
	logf("joined %s", addr)

	waves := make(map[int]*check.WaveProber)
	defer func() {
		for _, p := range waves {
			p.Close()
		}
	}()

	for {
		var m Msg
		if err := ReadFrame(br, &m); err != nil {
			return err
		}
		switch m.T {
		case MsgBye:
			logf("coordinator done")
			return nil

		case MsgJob:
			if m.Job == nil {
				return fmt.Errorf("fabric: job frame without a job spec")
			}
			build, prop, ok := reg(m.Job.Name, m.Job.N)
			if !ok {
				if err := WriteFrame(rwc, &Msg{T: MsgError, ID: m.ID, Err: fmt.Sprintf("unknown workload %q", m.Job.Name)}); err != nil {
					return err
				}
				break
			}
			t0 := time.Now()
			res, err := check.Explore(build, prop, m.Job.Opts)
			if err != nil {
				if werr := WriteFrame(rwc, &Msg{T: MsgError, ID: m.ID, Err: err.Error()}); werr != nil {
					return werr
				}
				break
			}
			logf("job %s: %d states in %s", m.Job.Name, res.States, time.Since(t0).Round(time.Millisecond))
			if err := WriteFrame(rwc, &Msg{T: MsgResult, ID: m.ID, Res: toWireResult(res), Ms: time.Since(t0).Milliseconds()}); err != nil {
				return err
			}

		case MsgShardOpen:
			if m.Job == nil {
				return fmt.Errorf("fabric: shard-open frame without a job spec")
			}
			if old := waves[m.Shard]; old != nil {
				old.Close()
				delete(waves, m.Shard)
			}
			build, prop, ok := reg(m.Job.Name, m.Job.N)
			if !ok {
				if err := WriteFrame(rwc, &Msg{T: MsgError, Shard: m.Shard, Err: fmt.Sprintf("unknown workload %q", m.Job.Name)}); err != nil {
					return err
				}
				break
			}
			p, err := check.NewWaveProber(build, prop, m.Job.Opts)
			if err != nil {
				if werr := WriteFrame(rwc, &Msg{T: MsgError, Shard: m.Shard, Err: err.Error()}); werr != nil {
					return werr
				}
				break
			}
			waves[m.Shard] = p
			logf("shard %d open: %s", m.Shard, m.Job.Name)

		case MsgShardClose:
			if p := waves[m.Shard]; p != nil {
				p.Close()
				delete(waves, m.Shard)
			}

		case MsgWave:
			p := waves[m.Shard]
			if p == nil {
				if err := WriteFrame(rwc, &Msg{T: MsgError, ID: m.ID, Err: fmt.Sprintf("wave for unopened shard %d", m.Shard)}); err != nil {
					return err
				}
				break
			}
			nodes, err := decodeNodes(m.Nodes)
			if err != nil {
				return err
			}
			s0 := p.Stats()
			reports := make([]check.WaveReport, 0, len(nodes))
			var perr error
			for _, nd := range nodes {
				rep, err := p.ProbeWave(nd)
				if err != nil {
					perr = err
					break
				}
				reports = append(reports, rep)
			}
			if perr != nil {
				if err := WriteFrame(rwc, &Msg{T: MsgError, ID: m.ID, Err: perr.Error()}); err != nil {
					return err
				}
				break
			}
			s1 := p.Stats()
			if err := WriteFrame(rwc, &Msg{T: MsgWaved, ID: m.ID, Shard: m.Shard, WReports: reports,
				Replayed: s1.Replayed - s0.Replayed, Saved: s1.Saved - s0.Saved}); err != nil {
				return err
			}
		}
	}
}

// peerClosed reports whether err means the coordinator closed the
// connection. That is its normal way of ending a session that already
// said (or raced) bye, and the worker may notice it reading the next
// frame (end of stream) or writing a reply the coordinator no longer
// reads (closed pipe, broken pipe, reset) — for example when a job ends
// on a violation while this worker is still answering a chunk of it.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET)
}
