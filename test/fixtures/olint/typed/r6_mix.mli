val stamp : unit -> float
val stamp_opened : unit -> float
