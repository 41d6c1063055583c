package shard_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fastquery"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/shard"
)

// TestCorruptReplyFailsOver: a reply corrupted where no field check can
// see it — one bit of a min/max bound — is refused at decode like a
// dropped connection. The call fails over to the shard's other replica,
// which answers exactly; the corrupting replica's breaker records the
// failure; and shard_reply_corrupt_total counts the refusal.
func TestCorruptReplyFailsOver(t *testing.T) {
	f := plan.Fragment{Op: plan.FragMinMax, Dataset: "lwfa", Step: 0, Rows: plan.RowRange{Lo: 0, Hi: 1000},
		Backend: fastquery.Scan, Vars: []string{"px"}}
	want, err := testExecutor(t).Run(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	bound := binary.LittleEndian.AppendUint64(nil, math.Float64bits(want.MinMax[0].Lo))

	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := shard.NewServer(shard.NewService(testExecutor(t), nil))
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			l = flipListener{l, bound}
		}
		srv.Serve(l)
		t.Cleanup(srv.Close)
		addrs = append(addrs, l.Addr().String())
	}
	c, err := shard.DialShards([][]string{addrs}, cluster.PoolConfig{
		CallTimeout:  10 * time.Second,
		MaxFailovers: -1,
		Breaker:      cluster.BreakerConfig{Enabled: true, ConsecutiveFailures: 1, Cooldown: time.Hour},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	corrupt := obs.Default().Counter("shard_reply_corrupt_total", "")
	before := corrupt.Load()
	got, err := c.RunFragment(context.Background(), 0, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MinMax) != 1 || got.MinMax[0].Var != "px" || got.MinMax[0].N != want.MinMax[0].N ||
		math.Float64bits(got.MinMax[0].Lo) != math.Float64bits(want.MinMax[0].Lo) ||
		math.Float64bits(got.MinMax[0].Hi) != math.Float64bits(want.MinMax[0].Hi) {
		t.Fatalf("answer %+v, want %+v", got.MinMax, want.MinMax)
	}
	if st := c.ReplicaStates()[0]; st[0].Breaker != "open" || st[1].Breaker != "closed" {
		t.Fatalf("breakers %+v: want replica 0 open on its failure, replica 1 closed", st)
	}
	if corrupt.Load() == before {
		t.Fatal("shard_reply_corrupt_total did not count the refused reply")
	}
}

// flipListener flips the lowest bit of the first occurrence of pattern in
// every write of the conns it accepts.
type flipListener struct {
	net.Listener
	pattern []byte
}

func (l flipListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &flipConn{c, l.pattern}, nil
}

type flipConn struct {
	net.Conn
	pattern []byte
}

func (c *flipConn) Write(p []byte) (int, error) {
	if i := bytes.Index(p, c.pattern); i >= 0 {
		p = bytes.Clone(p) // the caller owns p
		p[i] ^= 1
	}
	return c.Conn.Write(p)
}
