package ingress

import (
	"context"
	"fmt"
	"net"
	"time"

	"vids/internal/engine"
	"vids/internal/sim"
)

// UDPListeners feeds an Ingress from live sockets: K listener pairs
// (one SIP socket, one media socket each) bound to the same two
// addresses with SO_REUSEPORT where the platform has it, so the kernel
// spreads datagrams over the readers by flow hash — same-flow packets
// stay on one reader, preserving the per-call ordering the detectors
// assume. Platforms without the option fall back to a single pair.
//
// Each reader draws receive buffers from the tier's free list and
// stamps packets at receive time, before any lane or queue is
// involved, so ingestion backpressure never skews the arrival timeline
// the detectors reason about.
type UDPListeners struct {
	SIPAddr string // e.g. ":5060"
	RTPAddr string // e.g. ":20000"
	// AdvertiseHost is the host recorded as the destination of ingested
	// packets; it should match what SDP bodies advertise. Defaults to
	// each listener's own IP.
	AdvertiseHost string
	// Listeners is the number of socket pairs. Zero or negative means
	// one. Counts above one require SO_REUSEPORT and are clamped to one
	// where it is unavailable.
	Listeners int
}

// Run binds the sockets and pumps datagrams into ing until ctx is
// canceled or a reader fails. It returns only after every reader has
// stopped, so the caller may Close the tier immediately afterward.
func (ul *UDPListeners) Run(ctx context.Context, ing *Ingress) error {
	pairs := ul.Listeners
	if pairs <= 1 {
		pairs = 1
	}
	if pairs > 1 && !reusePortAvailable {
		pairs = 1
	}

	conns := make([]net.PacketConn, 0, 2*pairs)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	lc := listenConfig(pairs > 1)
	for i := 0; i < pairs; i++ {
		sipConn, err := lc.ListenPacket(ctx, "udp", ul.SIPAddr)
		if err != nil {
			return fmt.Errorf("ingress: bind SIP: %w", err)
		}
		conns = append(conns, sipConn)
		rtpConn, err := lc.ListenPacket(ctx, "udp", ul.RTPAddr)
		if err != nil {
			return fmt.Errorf("ingress: bind RTP: %w", err)
		}
		conns = append(conns, rtpConn)
	}

	start := time.Now() //vidslint:allow wallclock — live capture epoch for packet timestamps
	errc := make(chan error, len(conns))
	for i, conn := range conns {
		media := i%2 == 1
		go func(c net.PacketConn, media bool) {
			errc <- ul.pump(ctx, ing, c, start, media)
		}(conn, media)
	}

	var err error
	exited := 0
	select {
	case err = <-errc:
		exited = 1
	case <-ctx.Done():
	}
	// Unblock the remaining readers and wait them all out: a pump still
	// running after Run returns would hand its prefetched buffers back
	// to a pool the caller believes is quiescent.
	for _, c := range conns {
		c.Close()
	}
	for ; exited < len(conns); exited++ {
		<-errc
	}
	return err
}

// pump reads one socket until cancellation, drawing from the shared
// tier pool: the buffer travels with the packet and the tier's retire
// hook recycles it; on any path where the packet is not handed off,
// the buffer goes straight back.
func (ul *UDPListeners) pump(ctx context.Context, ing *Ingress, conn net.PacketConn, start time.Time, media bool) error {
	local, _ := conn.LocalAddr().(*net.UDPAddr)
	toHost := ul.AdvertiseHost
	if toHost == "" && local != nil {
		toHost = local.IP.String()
	}
	toPort := 0
	if local != nil {
		toPort = local.Port
	}
	pool := ing.Buffers()
	if br := newBatchReader(conn); br != nil {
		return ul.pumpBatch(ctx, ing, conn, br, start, toHost, toPort, media)
	}
	for {
		buf := pool.Get()
		//vidslint:allow wallclock — OS socket deadline, not detection time
		_ = conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		n, from, err := conn.ReadFrom(buf)
		if err != nil {
			pool.Put(buf)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if ctx.Err() != nil {
					return nil
				}
				continue
			}
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("ingress: read: %w", err)
		}
		at := time.Since(start) // receive time, not enqueue time
		payload := buf[:n]
		proto := sim.ProtoSIP
		if media {
			proto = sim.ProtoRTP
			if isRTCP(payload) {
				proto = sim.ProtoRTCP
			}
		}
		fromAddr := sim.Addr{}
		if ua, ok := from.(*net.UDPAddr); ok {
			fromAddr = sim.Addr{Host: ua.IP.String(), Port: ua.Port}
		}
		pkt := &sim.Packet{
			From:    fromAddr,
			To:      sim.Addr{Host: toHost, Port: toPort},
			Proto:   proto,
			Size:    n,
			Payload: payload,
		}
		if err := ing.Ingest(pkt, at); err != nil {
			pool.Put(buf)
			if err == engine.ErrClosed {
				return nil
			}
			return err
		}
	}
}

// pumpBatch is the Linux fast pump: recvmmsg(2) drains up to
// batchSize datagrams per syscall into pooled buffers. Consumed
// buffers travel with their packets (the retire hook recycles them);
// slots the batch did not fill keep their buffer for the next read, so
// idle wakeups touch the free list not at all. All datagrams of one
// batch share a receive timestamp — the kernel delivered them
// together, and a finer stamp than the wakeup that surfaced them does
// not exist.
func (ul *UDPListeners) pumpBatch(ctx context.Context, ing *Ingress, conn net.PacketConn, br *batchReader, start time.Time, toHost string, toPort int, media bool) error {
	pool := ing.Buffers()
	var bufs [batchSize][]byte
	defer func() {
		for i, b := range bufs {
			if b != nil {
				pool.Put(b)
				bufs[i] = nil
			}
		}
	}()
	for {
		for i := range bufs {
			if bufs[i] == nil {
				bufs[i] = pool.Get()
			}
		}
		//vidslint:allow wallclock — OS socket deadline, not detection time
		_ = conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		n, err := br.read(bufs[:])
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if ctx.Err() != nil {
					return nil
				}
				continue
			}
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("ingress: read: %w", err)
		}
		at := time.Since(start) // receive time for the whole batch
		for i := 0; i < n; i++ {
			buf := bufs[i]
			payload := buf[:br.sizes[i]]
			proto := sim.ProtoSIP
			if media {
				proto = sim.ProtoRTP
				if isRTCP(payload) {
					proto = sim.ProtoRTCP
				}
			}
			pkt := &sim.Packet{
				From:    br.addrs[i],
				To:      sim.Addr{Host: toHost, Port: toPort},
				Proto:   proto,
				Size:    len(payload),
				Payload: payload,
			}
			bufs[i] = nil // handed off with the packet
			if err := ing.Ingest(pkt, at); err != nil {
				pool.Put(buf)
				if err == engine.ErrClosed {
					return nil
				}
				return err
			}
		}
	}
}

// isRTCP demultiplexes rtcp-mux media sockets: RTP payload types stay
// below 128, RTCP packet types occupy 200–204 (RFC 5761 §4).
func isRTCP(data []byte) bool {
	return len(data) >= 2 && data[0]>>6 == 2 && data[1] >= 200 && data[1] <= 204
}
