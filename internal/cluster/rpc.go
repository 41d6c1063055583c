package cluster

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
)

// This file provides the server side of the RPC transport: a listener
// lifecycle (Server) that hosts whatever services a node registers, plus
// the one service every node carries — Worker.Ping, the heartbeat the
// client pool probes unhealthy or breaker-open replicas with. The work a
// node does (plan fragments) is registered on top by internal/shard.

// Worker is the liveness service registered on every Server.
type Worker struct{}

// PingArgs is the (empty) request of the Worker.Ping heartbeat.
type PingArgs struct{}

// PingReply acknowledges a heartbeat.
type PingReply struct {
	OK bool
}

// Ping is a lightweight liveness heartbeat used by the pool to probe
// unhealthy workers back into the failover rotation.
func (Worker) Ping(args *PingArgs, reply *PingReply) error {
	reply.OK = true
	return nil
}

// Server serves RPC over any number of listeners, tracking every accepted
// connection so Close can tear the whole node down rather than leaving
// in-flight ServeConn goroutines and their conns to outlive the listener.
type Server struct {
	rpcSrv *rpc.Server

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]struct{}
	closed    bool

	wg sync.WaitGroup
}

// NewServer returns a server with the Worker.Ping heartbeat registered,
// ready to Serve.
func NewServer() (*Server, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", Worker{}); err != nil {
		return nil, fmt.Errorf("cluster: register worker: %w", err)
	}
	return &Server{rpcSrv: srv, conns: make(map[net.Conn]struct{})}, nil
}

// RegisterName registers an additional RPC receiver on the server under
// the given service name — a shard worker serves the "Shard" fragment
// service beside the "Worker" heartbeat over the same listener.
func (s *Server) RegisterName(name string, rcvr any) error {
	return s.rpcSrv.RegisterName(name, rcvr)
}

// Serve accepts and serves connections on the listener in a background
// goroutine until the listener or the server is closed.
func (s *Server) Serve(l net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return
	}
	s.listeners = append(s.listeners, l)
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if !s.track(conn) {
				conn.Close()
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.rpcSrv.ServeConn(conn)
				s.untrack(conn)
				conn.Close()
			}()
		}
	}()
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops the listeners, closes every in-flight connection and waits
// for the serving goroutines to drain. Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ls := s.listeners
	s.listeners = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
