type kind = Kernel | User

type t = { id : int; name : string; kind : kind; vspace : Osiris_mem.Vspace.t }

let counter = ref 0

let create ~name ~kind vspace =
  incr counter;
  { id = !counter; name; kind; vspace }

let name t = t.name
let equal a b = a.id = b.id
