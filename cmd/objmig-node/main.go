// Command objmig-node runs a standalone object-hosting node on TCP. It
// registers a small key-value object type ("kv") so multi-process
// clusters can be exercised by hand:
//
//	objmig-node -id a -listen 127.0.0.1:7001 -create 2
//	objmig-node -id b -listen 127.0.0.1:7002 -peer a=127.0.0.1:7001
//
// The node prints the references of any objects it creates; other
// nodes can invoke them with those references (see cmd/objmig-demo for
// a scripted version of this setup).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"objmig"
)

// kvState is the demo object: a string map plus an access counter.
type kvState struct {
	Data map[string]string
	Hits int
}

// kvPair is the Put argument.
type kvPair struct {
	Key, Val string
}

// newKVType builds the demo object type registered by every node.
func newKVType() *objmig.Type[kvState] {
	t := objmig.NewType[kvState]("kv")
	objmig.HandleFunc(t, "Put", func(c *objmig.Ctx, s *kvState, p kvPair) (struct{}, error) {
		if s.Data == nil {
			s.Data = make(map[string]string)
		}
		s.Data[p.Key] = p.Val
		s.Hits++
		return struct{}{}, nil
	})
	objmig.HandleFunc(t, "Get", func(c *objmig.Ctx, s *kvState, key string) (string, error) {
		s.Hits++
		return s.Data[key], nil
	})
	objmig.HandleFunc(t, "Hits", func(c *objmig.Ctx, s *kvState, _ struct{}) (int, error) {
		return s.Hits, nil
	})
	objmig.HandleFunc(t, "Where", func(c *objmig.Ctx, s *kvState, _ struct{}) (objmig.NodeID, error) {
		return c.Node().ID(), nil
	})
	return t
}

// peerList collects repeated -peer id=addr flags.
type peerList map[objmig.NodeID]string

func (p peerList) String() string { return fmt.Sprintf("%v", map[objmig.NodeID]string(p)) }

func (p peerList) Set(v string) error {
	id, addr, ok := strings.Cut(v, "=")
	if !ok || id == "" || addr == "" {
		return fmt.Errorf("want id=addr, got %q", v)
	}
	p[objmig.NodeID(id)] = addr
	return nil
}

func parsePolicy(s string) (objmig.PolicyKind, error) {
	switch s {
	case "sedentary":
		return objmig.PolicySedentary, nil
	case "conventional":
		return objmig.PolicyConventional, nil
	case "placement":
		return objmig.PolicyPlacement, nil
	case "compare-nodes":
		return objmig.PolicyCompareNodes, nil
	case "compare-reinstantiate":
		return objmig.PolicyCompareReinstantiate, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

// parseAutopilotPolicy accepts the two dynamic strategies the
// autopilot can score with.
func parseAutopilotPolicy(s string) (objmig.PolicyKind, error) {
	switch s {
	case "compare-nodes":
		return objmig.PolicyCompareNodes, nil
	case "compare-reinstantiate":
		return objmig.PolicyCompareReinstantiate, nil
	default:
		return 0, fmt.Errorf("unknown autopilot policy %q (want compare-nodes or compare-reinstantiate)", s)
	}
}

func parseAttach(s string) (objmig.AttachMode, error) {
	switch s {
	case "unrestricted":
		return objmig.AttachUnrestricted, nil
	case "a-transitive":
		return objmig.AttachATransitive, nil
	case "exclusive":
		return objmig.AttachExclusive, nil
	default:
		return 0, fmt.Errorf("unknown attach mode %q", s)
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	peers := peerList{}
	var (
		id     = flag.String("id", "node", "node identity (unique per cluster)")
		listen = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		policy = flag.String("policy", "placement",
			"move policy: sedentary, conventional, placement, compare-nodes, compare-reinstantiate")
		attach = flag.String("attach", "a-transitive",
			"attachment mode: unrestricted, a-transitive, exclusive")
		create = flag.Int("create", 0, "create this many kv objects at startup")

		autopilot = flag.Bool("autopilot", false,
			"observe access affinity and migrate hosted objects towards their heaviest callers")
		apInterval = flag.Duration("autopilot-interval", 0,
			"autopilot scan period (0 = default 50ms)")
		apPolicy = flag.String("autopilot-policy", "compare-nodes",
			"autopilot scoring rule: compare-nodes, compare-reinstantiate")
		apMin = flag.Int64("autopilot-min", 0,
			"minimum observed accesses before an object is considered (0 = default 16)")
		apHysteresis = flag.Float64("autopilot-hysteresis", 0,
			"leader-vs-rival pressure ratio required to migrate (0 = default 2)")
		apCooldown = flag.Duration("autopilot-cooldown", 0,
			"per-object minimum time between autopilot migrations (0 = default 10x interval)")
		apBudget = flag.Int("autopilot-budget", 0,
			"max group migrations per scan tick (0 = default 4)")
		apDecay = flag.Int("autopilot-decay-every", 0,
			"halve affinity counters every N scans (0 = default 8, negative disables decay)")

		capacity = flag.Int64("capacity", 0,
			"advertised object capacity, enforced by the placement admission veto (0 = uncapped)")
		capacityBytes = flag.Int64("capacity-bytes", 0,
			"advertised resident-byte capacity, enforced alongside -capacity (0 = uncapped)")
		placement = flag.Bool("placement", false,
			"gossip load samples and place objects with the load-aware, group-scored engine")
		plHeartbeat = flag.Duration("placement-heartbeat", 0,
			"load-gossip heartbeat period (0 = default 500ms, negative disables)")
		plOriginPass = flag.Duration("placement-origin-pass", 0,
			"origin pre-placement scan period (0 = default 1s, negative disables)")
		plOverload = flag.Float64("placement-overload-ratio", 0,
			"utilisation above which a node is vetoed as a migration target (0 = default 1)")
		plHysteresis = flag.Float64("placement-hysteresis", 0,
			"winner-vs-rival score ratio required to move a group (0 = default 2)")
		plShedRatio = flag.Float64("placement-shed-ratio", 0,
			"utilisation above which this node proactively sheds cold closures (0 disables; must be below the overload ratio)")
		plShedPass = flag.Duration("placement-shed-pass", 0,
			"shed-pass period (0 = default 1s, negative disables)")

		healthOn = flag.Bool("health", false,
			"run the cluster health engine: windowed SLO evaluation, gossiped state, flight recorder")
		healthTick = flag.Duration("health-tick", 0,
			"health sampling period (0 = default 1s)")
		healthWindow = flag.Duration("health-window", 0,
			"health sliding evaluation window (0 = default 30s)")

		metricsAddr = flag.String("metrics-addr", "",
			"serve /metrics (Prometheus text), /debug/vars, /debug/pprof and /debug/migrations on this address (empty disables)")
	)
	flag.Var(peers, "peer", "peer address as id=addr (repeatable)")
	flag.Parse()

	pol, err := parsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "objmig-node:", err)
		return 2
	}
	att, err := parseAttach(*attach)
	if err != nil {
		fmt.Fprintln(os.Stderr, "objmig-node:", err)
		return 2
	}
	appol, err := parseAutopilotPolicy(*apPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "objmig-node:", err)
		return 2
	}
	node, err := objmig.NewNode(objmig.Config{
		ID:            objmig.NodeID(*id),
		Cluster:       objmig.NewTCPCluster(),
		ListenAddr:    *listen,
		Policy:        pol,
		Attach:        att,
		Peers:         peers,
		Capacity:      *capacity,
		CapacityBytes: *capacityBytes,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "objmig-node:", err)
		return 1
	}
	defer func() { _ = node.Close() }()
	if err := node.RegisterType(newKVType()); err != nil {
		fmt.Fprintln(os.Stderr, "objmig-node:", err)
		return 1
	}

	if *autopilot {
		err := node.EnableAutopilot(objmig.AutopilotConfig{
			Interval:      *apInterval,
			Policy:        appol,
			MinTotal:      *apMin,
			Hysteresis:    *apHysteresis,
			Cooldown:      *apCooldown,
			BudgetPerTick: *apBudget,
			DecayEvery:    *apDecay,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "objmig-node:", err)
			return 1
		}
	}

	if *placement {
		err := node.EnablePlacement(objmig.PlacementConfig{
			Heartbeat:     *plHeartbeat,
			OriginPass:    *plOriginPass,
			OverloadRatio: *plOverload,
			Hysteresis:    *plHysteresis,
			ShedRatio:     *plShedRatio,
			ShedPass:      *plShedPass,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "objmig-node:", err)
			return 1
		}
	}

	if *healthOn {
		err := node.EnableHealth(objmig.HealthConfig{
			Tick:   *healthTick,
			Window: *healthWindow,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "objmig-node:", err)
			return 1
		}
	}

	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "objmig-node: metrics listen:", err)
			return 1
		}
		srv := &http.Server{Handler: node.MetricsHandler()}
		go func() { _ = srv.Serve(ml) }()
		defer func() { _ = srv.Close() }()
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
	}

	fmt.Printf("node %s listening on %s (policy %v, attach %v, autopilot %v, placement %v, health %v, capacity %d)\n",
		node.ID(), node.Addr(), node.Policy(), node.AttachPolicy(), *autopilot, *placement, *healthOn, *capacity)
	for i := 0; i < *create; i++ {
		ref, err := node.Create("kv")
		if err != nil {
			fmt.Fprintln(os.Stderr, "objmig-node:", err)
			return 1
		}
		fmt.Printf("created kv object %s\n", ref)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if *autopilot || *placement || *healthOn {
		// Periodically report what the optimiser daemons see and do.
		ticker := time.NewTicker(10 * time.Second)
		defer ticker.Stop()
	loop:
		for {
			select {
			case <-sig:
				break loop
			case <-ticker.C:
				st := node.Stats()
				if *autopilot {
					fmt.Printf("autopilot: %d scans, %d migrations (%d objects), %d deferred; tracking %d hot objects\n",
						st.AutopilotScans, st.AutopilotMigrations, st.AutopilotObjectsMoved,
						st.AutopilotDeferred, len(node.Affinity()))
				}
				if *placement {
					fmt.Printf("placement: %d scans, %d migrations (%d objects), %d vetoes, %d reservations, %d sheds (%d bytes); gossip %d out / %d in, view of %d nodes\n",
						st.PlacementScans, st.PlacementMigrations, st.PlacementObjectsMoved,
						st.PlacementVetoes, st.PlacementReservations, st.PlacementSheds,
						st.PlacementShedBytes, st.LoadGossipSent, st.LoadGossipReceived,
						len(node.LoadView()))
				}
				if *healthOn {
					fmt.Printf("health: %s after %d ticks, transitions %d degraded / %d critical, %d inbound vetoes, %d dumps\n",
						node.Health(), st.HealthTicks, st.HealthDegraded,
						st.HealthCritical, st.HealthVetoes, st.HealthDumps)
				}
				fmt.Printf("directory: %d home, %d forwards, %d cached, %d closures (%d members), %d retired; hint hit rate %s, p99 chase %d hops (%d over budget)\n",
					st.LocHome, st.LocForwards, st.LocCache, st.LocClosures,
					st.LocClosureRefs, st.ForwardsRetired,
					hitRate(st.HintHits, st.HintMisses), st.ChaseP99Hops, st.ChasesOverBudget)
			}
		}
	} else {
		<-sig
	}
	st := node.Stats()
	fmt.Printf("shutting down: served %d invocations, granted %d moves, hosted %d objects\n",
		st.InvocationsServed, st.MovesGranted, st.ObjectsHosted)
	if *autopilot {
		fmt.Printf("autopilot total: %d migrations carrying %d objects, %d deferred, %d home-update RPCs for %d advisories\n",
			st.AutopilotMigrations, st.AutopilotObjectsMoved, st.AutopilotDeferred,
			st.HomeUpdateBatches, st.HomeUpdatesQueued)
	}
	if *placement {
		fmt.Printf("placement total: %d migrations carrying %d objects, %d vetoes, %d load samples out / %d in\n",
			st.PlacementMigrations, st.PlacementObjectsMoved, st.PlacementVetoes,
			st.LoadGossipSent, st.LoadGossipReceived)
	}
	fmt.Printf("directory total: %d home, %d forwards, %d cached, %d closures (%d members), %d retired; hint hit rate %s, p99 chase %d hops (%d over budget)\n",
		st.LocHome, st.LocForwards, st.LocCache, st.LocClosures,
		st.LocClosureRefs, st.ForwardsRetired,
		hitRate(st.HintHits, st.HintMisses), st.ChaseP99Hops, st.ChasesOverBudget)
	return 0
}

// hitRate formats hits/(hits+misses) as a percentage, or "n/a" before
// any chase has completed.
func hitRate(hits, misses int64) string {
	if hits+misses == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}
