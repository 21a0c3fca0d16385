# Adds the ledger to the repository build without editing the
# repository's CMakeLists.txt files. run.sh configures the repository with
#
#   cmake -S . -B build-ledger -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_mutk_INCLUDE=bench/ledger/AddLedger.cmake
#
# project(mutk) includes this file; the deferred call includes this
# directory's CMakeLists.txt once the top-level CMakeLists.txt has run to
# its end, so the ledger's targets get the repository's flags, link the
# build's own mutk and spawn the build's own mutkd. Where
# bench/CMakeLists.txt already adds `ledger`, this does nothing.
if(CMAKE_VERSION VERSION_LESS 3.19)
  message(FATAL_ERROR "AddLedger.cmake needs CMake 3.19 (cmake_language(DEFER))")
endif()

function(mutk_add_ledger)
  if(NOT TARGET mutk_ledger)
    include(${CMAKE_CURRENT_FUNCTION_LIST_DIR}/CMakeLists.txt)
  endif()
endfunction()

cmake_language(DEFER CALL mutk_add_ledger)
