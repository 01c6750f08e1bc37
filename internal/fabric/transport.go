package fabric

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Transport carries the fabric's byte streams between coordinator and
// workers. Addresses are opaque to the fabric: a TCP host:port, a pipe
// name — whatever the transport resolves. Implementations must allow
// Dial and Serve from different processes or goroutines concurrently.
type Transport interface {
	// Dial connects to a coordinator at addr.
	Dial(addr string) (io.ReadWriteCloser, error)
	// Serve starts accepting worker connections at addr.
	Serve(addr string) (Listener, error)
}

// Listener accepts inbound fabric connections.
type Listener interface {
	Accept() (io.ReadWriteCloser, error)
	Close() error
	// Addr is the bound address — for TCP with ":0" this is the
	// resolved port, which tests and scripts dial.
	Addr() string
}

// TCP is the deployment transport: plain TCP connections.
type TCP struct{}

// Dial implements Transport. The error is net's, which names the
// operation and the address.
func (TCP) Dial(addr string) (io.ReadWriteCloser, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	return c, nil
}

// Serve implements Transport.
func (TCP) Serve(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	return tcpListener{ln}, nil
}

type tcpListener struct{ net.Listener }

func (l tcpListener) Accept() (io.ReadWriteCloser, error) { return l.Listener.Accept() }
func (l tcpListener) Addr() string                        { return l.Listener.Addr().String() }

// PipeTransport is the in-process transport: synchronous net.Pipe pairs
// under a private address namespace. It exists for deterministic tests —
// coordinator and workers run in one process with no sockets, no ports
// and no timing dependence on the host network stack. net.Pipe writes
// are unbuffered rendezvous, so the transport also keeps the fabric
// honest about never blocking its event loop on a slow peer.
type PipeTransport struct {
	mu        sync.Mutex
	listeners map[string]*pipeListener
}

// NewPipeTransport returns an empty pipe namespace. Coordinator and
// workers must share the instance.
func NewPipeTransport() *PipeTransport {
	return &PipeTransport{listeners: make(map[string]*pipeListener)}
}

// Serve implements Transport.
func (p *PipeTransport) Serve(addr string) (Listener, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.listeners[addr]; ok {
		return nil, fmt.Errorf("fabric: pipe address %q already served", addr)
	}
	ln := &pipeListener{t: p, addr: addr, ch: make(chan net.Conn), done: make(chan struct{})}
	p.listeners[addr] = ln
	return ln, nil
}

// Dial implements Transport.
func (p *PipeTransport) Dial(addr string) (io.ReadWriteCloser, error) {
	p.mu.Lock()
	ln := p.listeners[addr]
	p.mu.Unlock()
	if ln == nil {
		return nil, fmt.Errorf("fabric: no pipe listener at %q", addr)
	}
	client, server := net.Pipe()
	select {
	case ln.ch <- server:
		return client, nil
	case <-ln.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("fabric: pipe listener at %q closed", addr)
	}
}

type pipeListener struct {
	t    *PipeTransport
	addr string
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func (l *pipeListener) Accept() (io.ReadWriteCloser, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("fabric: pipe listener at %q closed", l.addr)
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.t.mu.Lock()
		delete(l.t.listeners, l.addr)
		l.t.mu.Unlock()
	})
	return nil
}

func (l *pipeListener) Addr() string { return l.addr }
