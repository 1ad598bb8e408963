(* R2 fixture: Obj escape hatch, direct and through a module alias. *)
let cast (x : int) : string = Obj.magic x
module O = Obj
let cast_again (x : int) : string = O.magic x
