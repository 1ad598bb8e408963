(** §4's closing prediction, tested.

    The paper could not measure host-to-host throughput with double-cell
    DMA on the transmit side (the hardware change was "underway, but was
    not completed at the time of this writing") and predicted that it
    would "fall between the graphs for single cell DMA and that for double
    cell DMA on the receive side".

    The simulation has no such constraint: this experiment runs real
    host-to-host transfers over the striped link between two DEC 3000/600s
    with single- and double-cell DMA (applied to both directions of each
    board, as the hardware change would have), and checks the prediction
    against the receive-side-in-isolation curves of Figure 3. *)

val table : unit -> Report.table
