(** Applies a {!Plan} to a running simulation.

    The injector schedules one engine event per plan boundary; each event
    re-derives every knob from the plan at that instant and pushes it
    into the link (loss/corruption/duplication probabilities, carrier
    state, receive-FIFO squeeze) and, when a board is supplied, an
    interrupt-loss filter drawing from the injector's own seeded RNG
    plus the per-channel free-queue starvation gates
    ([Board.set_free_gate], from the plan's [free_starve] windows).
    Interrupt loss resolves per receive channel: a [Rx_nonempty ch]
    interrupt is suppressed with the max of the plan's global
    [irq_loss] probability and the channel-targeted [irq_loss_ch]
    probability for [ch]. Flap storms need no injector support beyond
    their dense boundary list: each toggle re-derives the carrier state
    through the same [set_link_state] path as a clean outage.
    The traffic RNG streams are untouched, so the same traffic seed with
    different plans stays comparable.

    Injection events count into the metrics registry ([fault.*]) and
    trace under [Trace.Fault]. *)

type t

val inject :
  Osiris_sim.Engine.t ->
  plan:Plan.t ->
  link:Osiris_link.Atm_link.t ->
  ?board:Osiris_board.Board.t ->
  unit ->
  t
(** Arm the plan on [link] (the faulted direction) and, optionally, the
    interrupt-loss filter on [board] (the receiving side). Knobs active
    at the current instant are applied immediately; every later boundary
    is scheduled. Call from process context or an engine callback. *)

val disarm : t -> unit
(** Clear every link fault (loss, corruption and duplication back to 0,
    the full receive FIFO), raise all carriers, zero the interrupt-loss
    probability and deactivate pending boundary events. Used before
    measuring quiescence. *)

(** {2 Topology faults}

    The plan's switch-level dimensions over a topology of one or more
    switches: [swflap#S.P@a-b=hp] storms the carrier of port [P] of
    switch [S] through {!Osiris_switch.Switch.set_port_state} (a down
    port stops draining, so its queue fills and overflows),
    [trunkdown#T@a-b] cuts every striped channel of both directed links
    of trunk [T] for the window, and [trunkloss@a-b=p] raises the
    cell-drop probability of every trunk link at once. One plan can
    drive host-link injectors and a topology injector side by side; they
    share its boundary list. *)

type topo

val inject_topology :
  Osiris_sim.Engine.t ->
  plan:Plan.t ->
  switches:Osiris_switch.Switch.t array ->
  trunks:Osiris_link.Atm_link.t array ->
  unit ->
  topo
(** Arm the plan's topology dimensions on a whole generated fabric —
    [switches] and [trunks] straight from
    {!Osiris_core.Network.topology} ([trunks] holds the two directed
    links of plan trunk [i] at [2i] and [2i+1]). *)
