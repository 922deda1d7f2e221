package ingress

import (
	"context"
	"net"
	"strconv"
	"testing"
	"time"

	"vids/internal/engine"
	"vids/internal/rtp"
)

// TestUDPListenersLoopback drives the live path over real loopback
// sockets: SIP and media datagrams land in the lanes, and every receive
// buffer comes from and returns to the tier's free list — a reader
// that allocated per datagram, or a retire path that leaked, fails the
// buffer-lifecycle invariant at the end.
func TestUDPListenersLoopback(t *testing.T) {
	ing := New(Config{Lanes: 2, Engine: engine.Config{Shards: 2}})

	// Reserve two ephemeral ports so the sender knows where to aim.
	sipLn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sipPort := sipLn.LocalAddr().(*net.UDPAddr).Port
	sipLn.Close()
	rtpLn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rtpPort := rtpLn.LocalAddr().(*net.UDPAddr).Port
	rtpLn.Close()

	ul := &UDPListeners{
		SIPAddr:   net.JoinHostPort("127.0.0.1", strconv.Itoa(sipPort)),
		RTPAddr:   net.JoinHostPort("127.0.0.1", strconv.Itoa(rtpPort)),
		Listeners: 2, // exercises SO_REUSEPORT on Linux, clamps to 1 elsewhere
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ul.Run(ctx, ing) }()

	conn, err := net.Dial("udp", ul.SIPAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mconn, err := net.Dial("udp", ul.RTPAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer mconn.Close()

	inv := shedInvite(0)
	rtpRaw, err := (&rtp.Packet{PayloadType: 18, Sequence: 1, Timestamp: 160,
		SSRC: 7, Payload: make([]byte, 20)}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rtcpRaw, err := (&rtp.RTCP{Type: rtp.RTCPSenderReport, SSRC: 7}).Marshal()
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		// Until Run has bound the sockets, loopback writes bounce with
		// "connection refused" — keep retrying within the deadline. The
		// target is high enough that buffers retire between bursts, so
		// buffer reuse is observable even with the batch pump's
		// per-socket prefetch of batchSize buffers.
		_, _ = conn.Write(inv.Bytes())
		_, _ = mconn.Write(rtpRaw)
		_, _ = mconn.Write(rtcpRaw)
		time.Sleep(20 * time.Millisecond)
		if st := ing.Stats(); st.Ingested >= 48 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listeners never ingested: %+v", ing.Stats())
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	st := ing.Stats()
	if st.Ingested < 3 || st.Processed+st.Absorbed == 0 {
		t.Errorf("unexpected stats: %+v", st)
	}
	// Buffer-lifecycle invariant: with ingestion stopped and the engine
	// drained, every buffer the pool ever handed out is back on the free
	// list — each retire recycled exactly one receive buffer.
	gets, misses, free := ing.Buffers().Stats()
	if gets == 0 {
		t.Fatal("listeners never drew from the free list")
	}
	if uint64(free) != misses {
		t.Errorf("free list holds %d buffers, pool allocated %d — receive buffers leaked", free, misses)
	}
	if misses >= gets && gets > 4 {
		t.Errorf("no buffer reuse across %d gets (%d misses)", gets, misses)
	}
}
