"""rfidlab: two RFID mutual-authentication protocols, the untraceability
game they are judged in, and the attacks that break them."""
