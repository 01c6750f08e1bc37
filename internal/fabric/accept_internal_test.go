package fabric

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// helloPeer is the coordinator's end of a connection whose worker wrote
// its hello before the coordinator accepted it: reads drain that frame
// and then end; writes are discarded.
type helloPeer struct{ r *bytes.Reader }

func (p helloPeer) Read(b []byte) (int, error) { return p.r.Read(b) }
func (helloPeer) Write(b []byte) (int, error)  { return len(b), nil }
func (helloPeer) Close() error                 { return nil }

// queueListener hands out its connections one per Accept, then fails.
type queueListener struct{ conns []io.ReadWriteCloser }

func (l *queueListener) Accept() (io.ReadWriteCloser, error) {
	if len(l.conns) == 0 {
		return nil, errors.New("no more connections")
	}
	c := l.conns[0]
	l.conns = l.conns[1:]
	return c, nil
}
func (*queueListener) Close() error { return nil }
func (*queueListener) Addr() string { return "queue" }

// TestAcceptAnnouncesBeforeFirstFrame drives the accept path with peers
// whose hellos are already written and requires every connection's
// evConn to reach the event loop before any frame from it. The loop drops
// frames from connections it has not been told about, so a hello that
// overtook its evConn would be lost and its worker would never get work.
// The race is narrow; run with -race -count=500 to shake it.
func TestAcceptAnnouncesBeforeFirstFrame(t *testing.T) {
	var hello bytes.Buffer
	if err := WriteFrame(&hello, &Msg{T: MsgHello, V: ProtoVersion}); err != nil {
		t.Fatal(err)
	}
	const conns = 32
	ln := &queueListener{}
	for i := 0; i < conns; i++ {
		ln.conns = append(ln.conns, helloPeer{bytes.NewReader(hello.Bytes())})
	}
	c := &coord{events: make(chan event, 128), closed: make(chan struct{})} // Coordinate's buffer
	defer close(c.closed)
	go c.acceptLoop(ln)

	announced := map[*conn]bool{}
	defer func() {
		for cn := range announced {
			cn.close()
		}
	}()
	hellos := 0
	for gone := 0; gone < conns; {
		ev := <-c.events
		switch ev.kind {
		case evConn:
			announced[ev.c] = true
		case evMsg:
			if !announced[ev.c] {
				t.Fatalf("%s frame delivered before its connection was announced", ev.msg.T)
			}
			hellos++
		case evGone:
			if !announced[ev.c] {
				t.Fatalf("connection ended (%v) before it was announced", ev.err)
			}
			gone++
		}
	}
	if hellos != conns {
		t.Fatalf("%d hellos delivered, want %d", hellos, conns)
	}
}
