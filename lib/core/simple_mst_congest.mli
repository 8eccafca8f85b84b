(** Message-level implementation of Procedure [SimpleMST] (§4.3).

    The companion to {!Simple_mst}: where that module simulates the
    procedure at phase granularity with the paper's round charges, this one
    executes the paper's synchronous schedule message by message on the
    CONGEST runtime.  Phase [i] consists of, at fixed offsets from the
    phase start (all nodes derive the global schedule from [k]):

    + a depth probe: the root broadcasts a hop-limited probe carrying its
      identity; a node that still holds the probe's exhausted hop counter
      while having children reports "too deep" in the echo
      (offsets [0 .. 2*2^i + 1]);
    + the verdict broadcast: the root tells the (shallow part of the)
      fragment whether it is active this phase (reaching depth [2^i]);
    + fragment-identity exchange: every node of an active fragment sends
      its root id over {e all} incident edges; edges over which a
      different id (or silence) arrives are outgoing (§4.3 ¶3);
    + the minimum-weight-outgoing-edge convergecast, each node discarding
      all but the lightest candidate (§4.3 ¶4);
    + rootship transfer along the remembered winner pointers, re-orienting
      parent links as it walks (§4.3 ¶5);
    + the connect handshake over the chosen edge: a mutual connect (always
      over the {e same} edge, by weight distinctness) makes the higher-id
      endpoint the root; silence means absorption into the other fragment
      (§4.3 ¶6).

    Phase [i] lasts [5*2^i + 10] rounds (the paper's [5*2^i + 2] plus a
    small constant for the explicit verdict and handshake slack).  The
    tests check that the resulting fragment partition is {e identical} to
    the phase-level simulation's. *)

open Kdom_graph
open Kdom_congest

type result = {
  fragments : Simple_mst.fragment list;
  stats : Engine.stats;
  phases : int;
}

type state
(** Per-node state of the protocol, for use with {!algorithm}. *)

val algorithm : Graph.t -> k:int -> state Engine.ealgorithm
(** The schedule-driven node program, exposed for differential testing. *)

val max_words : int
(** Declared word budget: the widest messages carry a tag plus two fields
    (probe, verdict) — 3 words. *)

val fragments_of_states : Graph.t -> state array -> Simple_mst.fragment list
(** Reconstruct the fragment forest from an execution's final state
    vector, whichever executor produced it; raises [Invalid_argument] if
    the remembered tree edges do not form a single-rooted forest. *)

val run : ?trace:Trace.t -> Graph.t -> k:int -> result
(** Requires a connected graph with distinct weights and [k >= 1].  With
    [?trace] the run is recorded under a [simple_mst] span carrying one
    synthetic [simple_mst.phase[i]] span per scheduled phase. *)

val schedule_length : k:int -> int
(** Total rounds of the fixed schedule: [sum over phases of 5*2^i + 10]. *)
