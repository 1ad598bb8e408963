(* R6 fixture: two wall-clock reads, one qualified ([stamp]) and one
   through [open Unix] ([stamp_opened]); both are flagged. *)

let stamp () = Unix.gettimeofday ()

let stamp_opened () =
  let open Unix in
  gettimeofday ()
