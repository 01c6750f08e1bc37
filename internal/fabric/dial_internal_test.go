package fabric

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestDialErrorNamesAddressOnce pins a worker's message when no
// coordinator answers: the transport's dial error names the address,
// and Work passes it on without a second prefix. The retries do not
// pause, so the test does not wait out Work's retry window.
func TestDialErrorNamesAddressOnce(t *testing.T) {
	defer func(d time.Duration) { dialBackoff = d }(dialBackoff)
	dialBackoff = 0
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	for _, c := range []struct {
		name string
		tr   Transport
		addr string
	}{
		{"tcp", TCP{}, closed},
		{"pipe", NewPipeTransport(), "nowhere"},
	} {
		err := Work(c.tr, c.addr, nil, nil)
		if err == nil {
			t.Fatalf("%s: Work reached a coordinator at %s", c.name, c.addr)
		}
		if n := strings.Count(err.Error(), c.addr); n != 1 {
			t.Errorf("%s: %q names %s %d times, want once", c.name, err, c.addr, n)
		}
	}
}
